package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, StandardCopyOption}

import scala.collection.mutable

import org.apache.spark.perfbench.SparkCounters
import org.apache.spark.sql.{DataFrame, SparkSession}

/** What a workload reads and records during one benchmark run.
  *
  * @param stateDir per-build directory where the first run of each
  *                 (workload, seed) leaves its fingerprint; later runs of
  *                 that seed must reproduce it exactly
  */
final class Ctx(val spark: SparkSession, val workload: String, val seed: Long,
                val trace: Trace, val counters: SparkCounters, stateDir: File) {

  /** Per-layer values measured by this run (traced runs only), by the
    * names of [[Catalog.perLayer]].
    */
  val layer: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap()

  /** Result fingerprint: values that must not depend on timing or tracing. */
  val fingerprint: mutable.LinkedHashMap[String, String] = mutable.LinkedHashMap()

  private var attempted = 0
  private val failures = mutable.ArrayBuffer[String]()

  def span[A](name: String)(body: => A): A = trace.span(name)(body)

  /** Spark work done inside each `sparkSpan`, summed by span name. */
  val sparkWork: mutable.LinkedHashMap[String, SparkCounters.Snapshot] = mutable.LinkedHashMap()

  /** A span that also records the Spark work done inside it (traced runs). */
  def sparkSpan[A](name: String)(body: => A): A =
    if (!trace.enabled) body
    else {
      val before = counters.snapshot()
      val out = span(name)(body)
      val d = counters.snapshot() - before
      sparkWork(name) = sparkWork.get(name).fold(d)(_ + d)
      out
    }

  /** Cache and count: later stages read `df` without recomputing it. */
  def materialize(df: DataFrame): (DataFrame, Long) = {
    val c = df.cache()
    (c, c.count())
  }

  /** One correctness check; a false result or an exception is a failure. */
  def check(what: String)(ok: => Boolean): Unit = {
    attempted += 1
    val passed = try ok catch {
      case e: Exception =>
        Console.err.println(s"[perfbench] check '$what' threw: $e")
        false
    }
    if (!passed) {
      failures += what
      Console.err.println(s"[perfbench] CHECK FAILED: $what")
    }
  }

  def checksAttempted: Int = attempted
  def checkFailures: Seq[String] = failures.toSeq

  /** Compare the fingerprint with the values stored by earlier runs of the
    * same build, workload and seed, key by key (traced runs add keys), and
    * store the union. The first run of a seed stores everything.
    */
  def checkFingerprintRepeats(): Unit = {
    stateDir.mkdirs()
    val f = new File(stateDir, s"fingerprint-$workload-seed$seed.tsv")
    val stored = mutable.LinkedHashMap[String, String]()
    if (f.exists()) Files.readAllLines(f.toPath, UTF_8).forEach { line =>
      val Array(k, v) = line.split("\t", 2)
      stored(k) = v
    }
    val differing = fingerprint.collect { case (k, v) if stored.get(k).exists(_ != v) => k }
    check(s"fingerprint equals earlier runs of seed $seed ($f): " +
      s"differing ${differing.mkString("[", ", ", "]")}")(differing.isEmpty)
    if (fingerprint.keys.exists(k => !stored.contains(k))) {
      val text = (stored ++ fingerprint.filter(kv => !stored.contains(kv._1)))
        .map { case (k, v) => s"$k\t$v\n" }.mkString
      val tmp = new File(stateDir, f.getName + s".${ProcessHandle.current().pid()}.tmp")
      Files.write(tmp.toPath, text.getBytes(UTF_8))
      Files.move(tmp.toPath, f.toPath, StandardCopyOption.ATOMIC_MOVE)
    }
  }
}

/** One benchmark workload: untimed set-up, a timed unit of work, and the
  * checks and traced extras that follow the timed phase.
  */
trait Workload {
  def setup(): Unit

  def unit(): Unit

  /** Correctness checks, fingerprint, and (traced runs) per-layer values. */
  def finish(): Unit
}
