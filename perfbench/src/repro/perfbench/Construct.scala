package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.benchmark.{BenchConfig, Benchmark, BenchmarkBuilder}
import repro.core._
import repro.exp.{BenchWorld, Tables}
import repro.kge.{KgeData, KgeDataset}
import repro.synth.{SynthConfig, World}
import repro.tasks._
import repro.tasks.PretrainedSim._

/** `construct`: the Spark SQL construction dataflow on the blocking path,
  * followed by the program's read-side uses of the finished KG.
  *
  * Set-up makes the world's raw sources as the jobs do
  * (`RawSources.fromWorld`). The timed unit is `KgBuilder.build`, the
  * Table I statistics (`KgStats`), the OpenBG-IMG extraction
  * (`BenchmarkBuilder.build` + `stats`), its collection
  * (`KgeData.fromBenchmark`) and `Tables.runTableV`. A traced run makes the
  * Table V calls one by one, then extracts OpenBG500/-L, and re-runs each
  * construction stage and each III-A sampling stage on materialised
  * inputs, so every stage span covers that stage only.
  */
final class Construct(ctx: Ctx) extends Workload {
  import ctx.{span, spark}

  private val world = new World(Construct.scale.copy(seed = ctx.seed))
  private var src: RawSources = _
  private var kg: Kg = _
  private var tableI: Seq[String] = Nil
  private var img: Benchmark = _
  private var imgStats: Seq[Long] = Nil
  private var data: KgeDataset = _
  private var tableV: Map[String, Map[String, Double]] = Map.empty

  def setup(): Unit = src = RawSources.fromWorld(spark, world)

  def unit(): Unit = {
    kg = ctx.sparkSpan("core.KgBuilder.build")(KgBuilder.build(spark, src))
    tableI = span("core.KgStats") {
      (KgStats.overall(spark, kg).collect() ++ KgStats.perTypeLevel(kg).collect() ++
        KgStats.perRelation(kg).collect()).map(_.mkString(",")).toSeq
    }
    val (b, s) = Construct.extract(ctx, kg, "img")
    img = b
    imgStats = s
    data = span("kge.KgeData.fromBenchmark")(KgeData.fromBenchmark(spark, kg, img))
    tableV =
      if (!ctx.trace.enabled) {
        val v = Tables.runTableV(spark, world, kg)
        Map("catpred" -> v.catPred, "ner" -> v.ner, "summ" -> v.summ, "ie" -> v.ie,
          "salience" -> v.salience)
      } else tracedTableV()
  }

  /** `Tables.runTableV`, one traced call per data builder and per run. */
  private def tracedTableV(): Map[String, Map[String, Double]] = {
    def td[A](n: String)(body: => A): A = span(s"tasks.TaskData.$n")(body)
    val cat = td("categoryExamples")(TaskData.categoryExamples(spark, world, kg))
    val ner = td("nerExamples")(TaskData.nerExamples(spark, world))
    val gaz = td("kgGazetteer")(TaskData.kgGazetteer(spark, kg))
    val summ = td("summarizationExamples")(TaskData.summarizationExamples(spark, world))
    val ie = td("ieExamples")(TaskData.ieExamples(spark, world))
    val attrLex = td("kgAttrLexicon")(TaskData.kgAttrLexicon(spark, kg))
    val sal = td("salienceExamples")(TaskData.salienceExamples(spark, world, kg))
    def cells(runner: String, models: Seq[SimModel])(run: SimModel => Double) =
      models.map(s => s.name -> span(s"tasks.$runner.run")(run(s))).toMap
    Map(
      "catpred" -> cells("CategoryPrediction", Seq(RobertaLarge, MplugBase, MplugBaseKg,
        MplugLargeKg))(s => CategoryPrediction.run(spark, cat, s).accuracy),
      "ner" -> cells("TitleNer", Seq(RobertaLarge, Uie, MplugBase, MplugBaseKg,
        MplugLargeKg))(s => TitleNer.run(spark, ner, gaz, s).f),
      "summ" -> cells("TitleSummarizer", Seq(Mt5, MplugBase, MplugBaseKg,
        MplugLargeKg))(s => TitleSummarizer.run(spark, summ, gaz, s).rougeL),
      "ie" -> cells("ReviewIE", Seq(Mt5, MplugBase, MplugBaseKg,
        MplugLargeKg))(s => ReviewIE.run(spark, ie, attrLex, s).f),
      "salience" -> cells("SalienceEvaluation", Seq(Bert, MplugBase, MplugBaseKg,
        MplugLargeKg))(s => SalienceEvaluation.run(spark, sal, s).accuracy))
  }

  def finish(): Unit = {
    val nodes = kg.nodes.count()
    val triples = kg.triples.count()
    ctx.fingerprint("kg_checksum") = Construct.checksum(kg).toString
    ctx.fingerprint("kg_nodes") = nodes.toString
    ctx.fingerprint("kg_triples") = triples.toString
    ctx.fingerprint("table_i_hash") = tableI.sorted.mkString("\n").hashCode.toString
    ctx.fingerprint("table_ii_img") = imgStats.mkString(",") // #ent,#rel,#train,#dev,#test,#mm
    ctx.fingerprint("kge_img_sizes") =
      Seq(data.nEnt, data.nRel, data.nTrain, data.devH.length, data.testH.length).mkString(",")
    tableV.toSeq.sortBy(_._1).foreach { case (task, byModel) =>
      byModel.toSeq.sortBy(_._1).foreach { case (m, v) =>
        ctx.fingerprint(s"table_v_${task}_$m") = v.toString
      }
    }

    Construct.checkSplits(ctx, "img", img)
    ctx.check("KgeDataset holds the IMG splits")(
      Seq(data.nTrain, data.devH.length, data.testH.length).map(_.toLong) == imgStats.slice(2, 5))
    val nCells = tableV.values.map(_.size).sum
    ctx.check(s"Table V has 21 cells (got $nCells)")(nCells == 21)
    tableV.foreach { case (task, byModel) =>
      byModel.foreach { case (m, v) =>
        ctx.check(s"Table V $task/$m = $v lies in [0, 1]")(v >= 0 && v <= 1)
      }
    }

    if (ctx.trace.enabled) {
      // OpenBG500/-L do not fit the untraced run's time budget; their
      // extraction times and the size order are traced-run results.
      val all = Seq("img" -> imgStats) ++ Seq("b500", "b500L").map { tag =>
        val (b, s) = Construct.extract(ctx, kg, tag)
        Construct.checkSplits(ctx, tag, b)
        ctx.fingerprint(s"table_ii_$tag") = s.mkString(",")
        tag -> s
      }
      val trainSizes = all.map(_._2(2))
      ctx.check(s"train sizes keep IMG < 500 < 500-L: ${trainSizes.mkString(" < ")}") {
        trainSizes == trainSizes.sorted && trainSizes.distinct.size == trainSizes.size
      }
      layerValues(nodes, triples)
    }
  }

  private def layerValues(nodes: Long, triples: Long): Unit = {
    val t = ctx.trace
    val w = ctx.sparkWork("core.KgBuilder.build")
    val buildS = t.seconds("core.KgBuilder.build")
    ctx.layer ++= Seq(
      "core.KgBuilder.build.wall_s" -> buildS,
      "core.KgBuilder.build.nodes" -> nodes.toDouble,
      "core.KgBuilder.build.triples" -> triples.toDouble,
      "core.KgBuilder.build.spark_jobs" -> w.jobs.toDouble,
      "core.KgBuilder.build.spark_stages" -> w.stages.toDouble,
      "core.KgBuilder.build.spark_tasks" -> w.tasks.toDouble,
      "core.KgBuilder.build.shuffle_mb" -> w.shuffleWriteBytes / (1024.0 * 1024.0),
      "core.KgBuilder.build.task_run_s" -> w.taskRunMs / 1e3,
      "core.KgStats.wall_s" -> t.seconds("core.KgStats"),
      "kge.KgeData.fromBenchmark.wall_s" -> t.seconds("kge.KgeData.fromBenchmark"),
      "kge.KgeData.fromBenchmark.rows_out" ->
        (data.nTrain + data.devH.length + data.testH.length).toDouble)
    Construct.benchConfigs.keys.foreach { tag =>
      val n = s"benchmark.BenchmarkBuilder.build.$tag"
      ctx.layer(s"$n.wall_s") = t.seconds(n)
    }
    Catalog.taskDataCalls.foreach { c =>
      ctx.layer(s"tasks.TaskData.$c.wall_s") = t.seconds(s"tasks.TaskData.$c")
    }
    Catalog.taskRunners.foreach { r =>
      ctx.layer(s"tasks.$r.run.wall_s") = t.seconds(s"tasks.$r.run")
      ctx.layer(s"tasks.$r.run.runs") = t.calls(s"tasks.$r.run").toDouble
    }
    spark.catalog.clearCache()
    ctx.layer("core.assembly_est_s") = buildS - traceStages()
    traceSampling(BenchWorld.b500Config)
  }

  /** Each construction stage of `KgBuilder.build`, fed its upstream
    * outputs already materialised; returns the summed stage seconds.
    */
  private def traceStages(): Double = {
    def stage(name: String)(df: => DataFrame): (DataFrame, Long) = {
      val out = span(s"core.$name")(ctx.materialize(df))
      ctx.layer(s"core.$name.wall_s") = ctx.trace.seconds(s"core.$name")
      out
    }
    val (places, nPlaces) = stage("SchemaMapping.unifyPlaces")(
      SchemaMapping.unifyPlaces(spark, src.placesA, src.placesB))
    val (brands, nBrands) = stage("SchemaMapping.unifyBrands")(
      SchemaMapping.unifyBrands(spark, src.brandRegistry))
    val nProducts = src.rawProducts.count().toDouble
    val (_, nBrandLinks) = stage("LabelMatcher.linkBrands")(
      LabelMatcher.linkBrands(spark, src.rawProducts, brands))
    val (_, nPlaceLinks) = stage("LabelMatcher.linkPlaces")(
      LabelMatcher.linkPlaces(spark, src.rawProducts, places))
    val (leafLexicon, _) = ctx.materialize(src.conceptLexicon.filter(col("level") === 2))
    val (mentions, nMentions) = stage("ConceptExtractor.extract")(
      ConceptExtractor.extract(spark, src.corpus, leafLexicon))
    val (_, nMarketLinks) = stage("ConceptExtractor.linkMarkets")(
      ConceptExtractor.linkMarkets(spark, src.rawProducts, leafLexicon))
    val (productTypes, _) = ctx.materialize(
      src.rawProducts.select(col("pid") as "productId", col("leafId")))
    val (ancestors, _) = ctx.materialize(KgBuilder.leafAncestors(src.categoryTaxonomy))
    val (facetTable, nFacets) = stage("QualityControl.facets")(
      QualityControl.facets(spark, mentions, productTypes, ancestors))
    val (_, nKept) = stage("QualityControl.filterLinks")(
      QualityControl.filterLinks(mentions, productTypes, facetTable))
    ctx.layer ++= Seq(
      "core.SchemaMapping.unifyPlaces.rows_out" -> nPlaces.toDouble,
      "core.SchemaMapping.unifyBrands.rows_out" -> nBrands.toDouble,
      "core.LabelMatcher.linkBrands.rows_out" -> nBrandLinks.toDouble,
      "core.LabelMatcher.linkBrands.match_rate" -> nBrandLinks / nProducts,
      "core.LabelMatcher.linkPlaces.rows_out" -> nPlaceLinks.toDouble,
      "core.LabelMatcher.linkPlaces.match_rate" -> nPlaceLinks / nProducts,
      "core.ConceptExtractor.extract.rows_out" -> nMentions.toDouble,
      "core.ConceptExtractor.linkMarkets.rows_out" -> nMarketLinks.toDouble,
      "core.QualityControl.facets.rows_out" -> nFacets.toDouble,
      "core.QualityControl.filterLinks.keep_rate" -> nKept.toDouble / nMentions)
    Seq("SchemaMapping.unifyPlaces", "SchemaMapping.unifyBrands", "LabelMatcher.linkBrands",
      "LabelMatcher.linkPlaces", "ConceptExtractor.extract", "ConceptExtractor.linkMarkets",
      "QualityControl.facets", "QualityControl.filterLinks")
      .map(s => ctx.trace.seconds(s"core.$s")).sum
  }

  /** The III-A sampling funnel of one extraction, stage by stage. */
  private def traceSampling(cfg: BenchConfig): Unit = {
    def stage[A](name: String)(body: => (A, Long)): A = {
      val n = s"benchmark.BenchmarkBuilder.$name"
      val (out, rows) = span(n)(body)
      ctx.layer(s"$n.wall_s") = ctx.trace.seconds(n)
      ctx.layer(s"$n.rows_out") = rows.toDouble
      out
    }
    val (base, _) = ctx.materialize(BenchmarkBuilder.benchmarkableTriples(kg))
    val rels = stage("refineRelations")(
      ctx.materialize(BenchmarkBuilder.refineRelations(base, cfg.nRelations)))
    val heads = stage("filterHeadEntities")(
      ctx.materialize(BenchmarkBuilder.filterHeadEntities(base, rels, cfg)))
    val sampled = stage("sampleTriples")(
      ctx.materialize(BenchmarkBuilder.sampleTriples(base, rels, heads, cfg)))
    stage("split") {
      val (tr, dv, te) = BenchmarkBuilder.split(spark, sampled, cfg)
      ((), Seq(tr, dv, te).map(d => ctx.materialize(d)._2).sum)
    }
  }
}

object Construct {

  /** The tiny taxonomy with 40x its products: taxonomy-sized work stays
    * small while product-proportional work (linking, extraction,
    * assembly) grows.
    */
  val scale: SynthConfig = SynthConfig.tiny.copy(nProducts = 3000)

  val benchConfigs: Map[String, BenchConfig] = Map(
    "img" -> BenchWorld.imgConfig, "b500" -> BenchWorld.b500Config,
    "b500L" -> BenchWorld.b500LConfig)

  /** One Table II extraction with its row: (#ent, #rel, #train, #dev, #test, #mm). */
  def extract(ctx: Ctx, kg: Kg, tag: String): (Benchmark, Seq[Long]) =
    ctx.span(s"benchmark.BenchmarkBuilder.build.$tag") {
      val b = BenchmarkBuilder.build(ctx.spark, kg, benchConfigs(tag)).cache()
      val s = b.stats
      (b, Seq(s._2, s._3, s._4, s._5, s._6, s._7))
    }

  /** Order-independent KG checksum. */
  def checksum(kg: Kg): Long =
    kg.triples.agg(expr("bit_xor(xxhash64(s, p, o, kind))")).head().getLong(0)

  /** Leakage-free split: dev/test never in train, every dev/test tail in train. */
  def checkSplits(ctx: Ctx, tag: String, b: Benchmark): Unit = {
    import ctx.spark.implicits._
    def rows(df: DataFrame) = df.select("h", "r", "t").as[(String, String, String)].collect().toSet
    val train = rows(b.train)
    val trainEnts = train.flatMap { case (h, _, t) => Set(h, t) }
    Seq("dev" -> rows(b.dev), "test" -> rows(b.test)).foreach { case (split, held) =>
      ctx.check(s"$tag: $split is non-empty")(held.nonEmpty)
      ctx.check(s"$tag: $split and train are disjoint")(held.intersect(train).isEmpty)
      ctx.check(s"$tag: every $split tail appears in train")(held.forall(x => trainEnts(x._3)))
    }
  }
}
