package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.JobSession

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * The session is the jobs' own (`JobSession.spark`): one shuffle
  * partition per core, and broadcast joins off, so the DataFrame
  * pipelines exercise the shuffle path (with the 10 MB broadcast default
  * the construct benchmark's live heap grew from 136 MB to 543 MB).
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.spark("repro")
    // One line in test output that shows the heap setting, the core count
    // and the shuffle partition count derived from it.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism} " +
      s"shufflePartitions=${s.conf.get("spark.sql.shuffle.partitions")}"
    )
    s
  }
}
