package repro.exp

import org.apache.spark.sql.SparkSession
import repro.benchmark.{Benchmark, BenchmarkBuilder}
import repro.core.{Kg, KgBuilder, RawSources}
import repro.kge.{KgeData, KgeDataset}
import repro.synth.{SynthConfig, World}

/** The paper's seven result tables, each wired once (inputs, model roster,
  * epoch scale, title, paper constants) for `TableJob` and the bench suites.
  */
object Experiments {

  /** A paper table: `compute` runs its experiment on the shared inputs,
    * `render` prints the result next to the paper's numbers. Tables I and
    * II query the KG as they render, so their `compute` renders.
    */
  final case class Table[R](name: String, compute: Inputs => R, render: R => String) {
    def text(in: Inputs): String = render(compute(in))
  }

  /** The tables' inputs, each built on first use and shared by the tables
    * that read it: the world and KG, the three extractions and their
    * link-prediction datasets.
    */
  final class Inputs(val spark: SparkSession, worldAndKg: => (World, Kg)) {
    lazy val (world, kg): (World, Kg) = worldAndKg
    lazy val img: Benchmark = BenchmarkBuilder.build(spark, kg, BenchWorld.imgConfig).cache()
    lazy val b500: Benchmark = BenchmarkBuilder.build(spark, kg, BenchWorld.b500Config).cache()
    lazy val b500L: Benchmark = BenchmarkBuilder.build(spark, kg, BenchWorld.b500LConfig).cache()
    lazy val imgData: KgeDataset = KgeData.fromBenchmark(spark, kg, img)
    lazy val d500: KgeDataset = KgeData.fromBenchmark(spark, kg, b500)
    lazy val d500L: KgeDataset = KgeData.fromBenchmark(spark, kg, b500L)
  }

  object Inputs {
    def apply(spark: SparkSession, cfg: SynthConfig): Inputs =
      new Inputs(spark, {
        val world = new World(cfg)
        (world, KgBuilder.build(spark, RawSources.fromWorld(spark, world)))
      })
  }

  val tableI: Table[String] = Table("tableI", in => Tables.tableI(in.spark, in.kg), identity)

  val tableII: Table[String] =
    Table("tableII", in => Tables.tableII(in.kg, Seq(in.img, in.b500, in.b500L)), identity)

  val tableIII: Table[Seq[LinkPred.ModelRun]] = Table("tableIII",
    in => LinkPred.run(in.spark, in.imgData, LinkPred.singleModalImg ++ LinkPred.multiModal),
    Tables.linkPredTable("TABLE III — Link prediction on OpenBG-IMG (paper) vs OpenBG-IMG-S (ours)",
      Tables.paperImg, _))

  /** OpenBG500-L trains every model at half its epochs ("×0.5 on 500-L"). */
  val tableIV: Table[(Seq[LinkPred.ModelRun], Seq[LinkPred.ModelRun])] = Table("tableIV",
    in => (LinkPred.run(in.spark, in.d500, LinkPred.models500),
      LinkPred.run(in.spark, in.d500L, LinkPred.models500L, epochScale = 0.5)),
    { case (r500, r500L) =>
      Tables.linkPredTable("TABLE IV (left) — OpenBG500 (paper) vs OpenBG500-S (ours)",
        Tables.paper500, r500) + "\n" +
      Tables.linkPredTable("TABLE IV (right) — OpenBG500-L (paper) vs OpenBG500-L-S (ours)",
        Tables.paper500L, r500L)
    })

  val tableV: Table[Tables.TaskSuiteResult] =
    Table("tableV", in => Tables.runTableV(in.spark, in.world, in.kg), Tables.tableV)

  val tableVI: Table[Seq[(String, Double, Double)]] = Table("tableVI",
    in => Tables.runTableVI(in.spark, in.world, in.kg),
    Tables.lowResourceTable("TABLE VI — Low-resource category prediction (accuracy x100)",
      Tables.paperTableVI, _))

  val tableVII: Table[Seq[(String, Double, Double)]] = Table("tableVII",
    in => Tables.runTableVII(in.spark, in.world, in.kg),
    Tables.lowResourceTable("TABLE VII — Low-resource NER for titles (F1 x100)",
      Tables.paperTableVII, _))

  /** Every table, in paper order. */
  val tables: Seq[Table[_]] = Seq(tableI, tableII, tableIII, tableIV, tableV, tableVI, tableVII)
}
