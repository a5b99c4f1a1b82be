package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files

import org.apache.spark.perfbench.SparkCounters
import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession

/** One benchmark run: `--workload <construct|linkpred> --seed <n>
  * --seconds <s> --trace <0|1> --state <dir>`. Prints the session
  * settings and the result fingerprint, then the result object as the
  * last line of stdout. Launched by `perfbench/run.py`.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        stateDir: File)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt, trace,
      new File(need("state")))
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }

  def main(argv: Array[String]): Unit = {
    val code = try { run(parse(argv)); 0 } catch {
      case e: Throwable =>
        Console.err.println(s"[perfbench] run failed: $e")
        e.printStackTrace()
        1
    }
    sys.exit(code)
  }

  private def cpuNs(): Long = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime


  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def run(a: Args): Unit = {
    // DatasetCache serves datasets keyed by name only; with it on, a run
    // could time stale data instead of the program.
    require(!sys.env.contains("REPRO_CACHE"), "REPRO_CACHE is set; unset it to benchmark")
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime

    val spark = JobSession.spark(s"perfbench-${a.workload}")
    val counters = SparkCounters.register(spark.sparkContext)
    val ctx = new Ctx(spark, a.workload, a.seed, new Trace(a.trace), counters, a.stateDir)
    val w: Workload = a.workload match {
      case "construct" => new Construct(ctx)
      case "linkpred" => new Linkpred(ctx)
      case other => throw new IllegalArgumentException(s"unknown workload '$other'")
    }

    w.setup()
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3

    // Timed phase: whole units until --seconds have passed (at least one);
    // wall_s and cpu_s are the medians over the units.
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    val walls = scala.collection.mutable.ArrayBuffer[Double]()
    val cpus = scala.collection.mutable.ArrayBuffer[Double]()
    val liveMb = scala.collection.mutable.ArrayBuffer[Double]()
    val before = counters.snapshot()
    val phaseStart = System.nanoTime()
    do {
      if (walls.nonEmpty) spark.catalog.clearCache()
      val c0 = cpuNs()
      val t0 = System.nanoTime()
      w.unit()
      walls += (System.nanoTime() - t0) / 1e9
      cpus += (cpuNs() - c0) / 1e9
      liveMb += HeapPeak.liveMb()
    } while (System.nanoTime() < deadline)
    val phaseS = (System.nanoTime() - phaseStart) / 1e9
    val work = counters.snapshot() - before

    w.finish()
    ctx.checkFingerprintRepeats()

    val metrics = new MetricSet
    if (!a.trace) {
      val e2e = Map("wall_s" -> median(walls.toSeq), "cpu_s" -> median(cpus.toSeq),
        "setup_s" -> setupS, "heap_peak_mb" -> liveMb.max)
      Catalog.endToEnd.foreach { case (n, u) => metrics.put(n, e2e(n), u) }
    } else {
      val cores = spark.sparkContext.defaultParallelism
      ctx.layer ++= Seq(
        "spark.jobs" -> work.jobs.toDouble, "spark.stages" -> work.stages.toDouble,
        "spark.tasks" -> work.tasks.toDouble,
        "spark.shuffle_write_mb" -> work.shuffleWriteBytes / (1024.0 * 1024.0),
        "spark.spill_mb" -> work.spillBytes / (1024.0 * 1024.0),
        "spark.task_run_s" -> work.taskRunMs / 1e3, "spark.task_gc_s" -> work.taskGcMs / 1e3,
        "spark.busy_frac" -> work.taskRunMs / 1e3 / (phaseS * cores),
        "trace.timed_wall_s" -> median(walls.toSeq))
      val known = Catalog.perLayer.map(_._1).toSet
      val unknown = ctx.layer.keys.filterNot(known)
      require(unknown.isEmpty, s"per-layer values outside the catalog: ${unknown.mkString(", ")}")
      Catalog.perLayer.foreach { case (n, u) => metrics.put(n, ctx.layer.getOrElse(n, 0.0), u) }
      val traceFile = new File(a.stateDir, s"trace-${a.workload}-seed${a.seed}.json")
      Files.write(traceFile.toPath, Trace.toJson(ctx.trace.spans).getBytes(UTF_8))
      Console.err.println(s"[perfbench] spans written to $traceFile")
    }

    println(Json.obj(Seq("session" -> sessionJson(spark))))
    println(Json.obj(Seq("fingerprint" -> Json.obj(ctx.fingerprint.toSeq.map {
      case (k, v) => k -> Json.str(v)
    }))))
    println(Json.obj(Seq("timed_units" -> walls.size.toString,
      "unit_wall_s" -> walls.map(w => f"$w%.3f").mkString("[", ", ", "]"),
      "unit_cpu_s" -> cpus.map(c => f"$c%.3f").mkString("[", ", ", "]"), "checks_failed" ->
      ctx.checkFailures.map(Json.str).mkString("[", ", ", "]"))))
    println(Json.obj(Seq(
      "correct" -> ctx.checkFailures.isEmpty.toString,
      "attempted" -> ctx.checksAttempted.toString,
      "failed" -> ctx.checkFailures.size.toString,
      "metrics" -> metrics.toJson)))
    spark.stop()
  }

  /** The session settings that decide how the program's Spark work runs. */
  private def sessionJson(spark: SparkSession): String = {
    def conf(k: String) = Json.str(spark.conf.getOption(k).getOrElse("(unset)"))
    Json.obj(Seq(
      "spark.sql.shuffle.partitions" -> conf("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf("spark.sql.autoBroadcastJoinThreshold"),
      "spark.sql.adaptive.enabled" -> conf("spark.sql.adaptive.enabled"),
      "spark.master" -> Json.str(spark.sparkContext.master),
      "defaultParallelism" -> spark.sparkContext.defaultParallelism.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString))
  }
}
