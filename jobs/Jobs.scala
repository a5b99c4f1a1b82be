package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.benchmark.BenchmarkBuilder
import repro.exp._
import repro.kge.KgeData
import repro.synth.SynthConfig

/** Shared spark-submit plumbing for the per-table jobs, the test suites
  * and the benchmark: the one place the SparkSession is configured.
  */
object JobSession {

  /** The session: one shuffle partition per core (the construction
    * dataflow is bound by per-task overhead, not by data), and broadcast
    * joins off (the 10 MB default raised the construct workload's live
    * heap from 136 MB to 543 MB).
    */
  def spark(app: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    s.conf.set("spark.sql.shuffle.partitions", s.sparkContext.defaultParallelism.toLong)
    s
  }

  /** Scale from args: "tiny" for smoke runs, default bench. */
  def cfg(args: Array[String]): SynthConfig =
    if (args.contains("--tiny")) SynthConfig.tiny else SynthConfig.bench
}

/** Table I: construct the full KG and print its statistics. */
object BuildKgJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("openbg-build-kg")
    val (_, kg) = BenchWorld.buildKg(spark, JobSession.cfg(args))
    println(Tables.tableI(spark, kg))
    spark.stop()
  }
}

/** Table II: extract the three benchmarks and print their statistics. */
object BuildBenchmarksJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("openbg-build-benchmarks")
    val (_, kg) = BenchWorld.buildKg(spark, JobSession.cfg(args))
    val (img, b500, b500L) = BenchWorld.buildBenchmarks(spark, kg)
    println(Tables.tableII(kg, Seq(img, b500, b500L)))
    spark.stop()
  }
}

/** Table III: link prediction on the OpenBG-IMG analog (11 models). */
object LinkPredImgJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("openbg-linkpred-img")
    val (_, kg) = BenchWorld.buildKg(spark, JobSession.cfg(args))
    val img = BenchmarkBuilder.build(spark, kg, BenchWorld.imgConfig).cache()
    val data = KgeData.fromBenchmark(spark, kg, img)
    val runs = LinkPred.run(spark, data, LinkPred.singleModalImg ++ LinkPred.multiModal)
    println(Tables.linkPredTable("TABLE III — Link prediction on OpenBG-IMG (paper) vs OpenBG-IMG-S (ours)",
      Tables.paperImg, runs))
    spark.stop()
  }
}

/** Table IV: link prediction on the OpenBG500 / OpenBG500-L analogs. */
object LinkPred500Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("openbg-linkpred-500")
    val (_, kg) = BenchWorld.buildKg(spark, JobSession.cfg(args))
    val b500 = BenchmarkBuilder.build(spark, kg, BenchWorld.b500Config).cache()
    val r500 = LinkPred.run(spark, KgeData.fromBenchmark(spark, kg, b500), LinkPred.models500)
    println(Tables.linkPredTable("TABLE IV (left) — OpenBG500 (paper) vs OpenBG500-S (ours)",
      Tables.paper500, r500))
    val b500L = BenchmarkBuilder.build(spark, kg, BenchWorld.b500LConfig).cache()
    val r500L = LinkPred.run(spark, KgeData.fromBenchmark(spark, kg, b500L), LinkPred.models500L)
    println(Tables.linkPredTable("TABLE IV (right) — OpenBG500-L (paper) vs OpenBG500-L-S (ours)",
      Tables.paper500L, r500L))
    spark.stop()
  }
}

/** Table V: the five downstream tasks. */
object DownstreamJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("openbg-downstream")
    val (world, kg) = BenchWorld.buildKg(spark, JobSession.cfg(args))
    val res = Tables.runTableV(spark, world, kg)
    println(Tables.tableV(res))
    spark.stop()
  }
}

/** Tables VI and VII: low-resource category prediction and NER. */
object LowResourceJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("openbg-low-resource")
    val (world, kg) = BenchWorld.buildKg(spark, JobSession.cfg(args))
    println(Tables.lowResourceTable(
      "TABLE VI — Low-resource category prediction (accuracy x100)",
      Tables.paperTableVI, Tables.runTableVI(spark, world, kg)))
    println(Tables.lowResourceTable(
      "TABLE VII — Low-resource NER for titles (F1 x100)",
      Tables.paperTableVII, Tables.runTableVII(spark, world, kg)))
    spark.stop()
  }
}
