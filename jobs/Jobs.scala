package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments
import repro.exp.Experiments.Table
import repro.synth.SynthConfig

/** Shared spark-submit plumbing for the table job, the test suites and
  * the benchmark: the one place the SparkSession is configured.
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
}

/** `TableJob <table>... [--tiny]` prints each named paper table at bench
  * (or smoke) scale. The tables share one `Inputs`, so one KG is built.
  */
object TableJob {

  /** The tables named and the scale, or an error and the usage line for an
    * unknown table or flag, or no table.
    */
  def parse(args: Seq[String]): Either[String, (Seq[Table[_]], SynthConfig)] = {
    val byName = Experiments.tables.map(t => t.name -> t).toMap
    val names = args.filterNot(_ == "--tiny")
    val unknown = names.filterNot(byName.contains)
    val usage = "usage: TableJob <table>... [--tiny]; tables: " +
      Experiments.tables.map(_.name).mkString(" ")
    if (unknown.nonEmpty) Left(s"unknown argument ${unknown.mkString(" ")}\n$usage")
    else if (names.isEmpty) Left(s"no table named\n$usage")
    else Right((names.map(byName), if (args.contains("--tiny")) SynthConfig.tiny else SynthConfig.bench))
  }

  def main(args: Array[String]): Unit = parse(args.toSeq) match {
    case Left(error) => Console.err.println(error); sys.exit(2)
    case Right((tables, cfg)) =>
      val spark = JobSession.spark("openbg-tables")
      val in = Experiments.Inputs(spark, cfg)
      tables.foreach(t => println(t.text(in)))
      spark.stop()
  }
}
