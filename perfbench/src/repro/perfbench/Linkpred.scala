package repro.perfbench

import java.util.concurrent.{Callable, Executors}

import repro.benchmark.BenchmarkBuilder
import repro.core.{Kg, Schema}
import repro.exp.{BenchWorld, LinkPred}
import repro.kge._
import repro.synth.{BusinessSynth, SynthConfig, World}

/** `linkpred`: driver-side SGD and Spark-distributed ranking on the
  * blocking path, with no KG construction in the run.
  *
  * Set-up generates the world's ground-truth KG (the facts the
  * construction pipeline recovers), extracts the OpenBG-IMG analog from it
  * with `BenchmarkBuilder.build` and collects it with
  * `KgeData.fromBenchmark`, then warms up with `LinkPred.run` at a tenth
  * of each model's epochs. The timed unit is `LinkPred.run` over the
  * Table III roster at a quarter of the epochs, so the timed phase holds
  * several units. A traced run makes the same calls model by model, with a
  * span around each `Trainer.train` and `Evaluator.evaluate`.
  */
final class Linkpred(ctx: Ctx) extends Workload {
  import ctx.{span, spark}

  private var data: KgeDataset = _
  private var runs: Seq[Seq[(String, Evaluator.Metrics)]] = Nil

  def setup(): Unit = {
    val kg = Linkpred.groundTruthKg(ctx, new World(Linkpred.scale.copy(seed = ctx.seed)))
    val img = span("benchmark.BenchmarkBuilder.build.img")(
      BenchmarkBuilder.build(spark, kg, BenchWorld.imgConfig).cache())
    data = span("kge.KgeData.fromBenchmark")(KgeData.fromBenchmark(spark, kg, img))
    // Warm-up at a smaller scale than the timed unit: every model's
    // training and ranking code is compiled by the JIT before timing, so
    // the first timed unit is not slower than the rest.
    LinkPred.run(spark, data, Catalog.roster, epochScale = Linkpred.warmupEpochScale)
  }

  def unit(): Unit = {
    val r =
      if (!ctx.trace.enabled)
        LinkPred.run(spark, data, Catalog.roster, Linkpred.epochScale)
          .map(r => r.model -> r.metrics)
      else Catalog.roster.map { n =>
        val (model, cfg) = Linkpred.makeModel(n, data, Linkpred.epochScale)
        span(s"kge.Trainer.train.$n")(Trainer.train(model, data, cfg))
        n -> ctx.sparkSpan(s"kge.Evaluator.evaluate.$n")(Evaluator.evaluate(spark, model, data))
      }
    runs :+= r
  }

  def finish(): Unit = {
    val last = runs.last
    ctx.fingerprint("img_sizes") =
      Seq(data.nEnt, data.nRel, data.nTrain, data.devH.length, data.testH.length).mkString(",")
    last.foreach { case (n, m) =>
      ctx.fingerprint(s"lp_$n") = Seq(m.hits1, m.hits3, m.hits10, m.mr, m.mrr).mkString(",")
    }
    ctx.check("every timed unit gave the same metrics")(runs.forall(_ == last))
    ctx.check("LinkPred.run returned the Table III roster")(last.map(_._1) == Catalog.roster)
    Linkpred.checkRanks(ctx, data, last)
    if (ctx.trace.enabled) layerValues()
  }

  private def layerValues(): Unit = {
    val t = ctx.trace
    ctx.layer ++= Seq(
      "benchmark.BenchmarkBuilder.build.img.wall_s" -> t.seconds("benchmark.BenchmarkBuilder.build.img"),
      "kge.KgeData.fromBenchmark.wall_s" -> t.seconds("kge.KgeData.fromBenchmark"),
      "kge.KgeData.fromBenchmark.rows_out" ->
        (data.nTrain + data.devH.length + data.testH.length).toDouble)
    val updates = Catalog.roster.map { n =>
      val cfg = Linkpred.makeModel(n, data, Linkpred.epochScale)._2
      cfg.epochs.toDouble * data.nTrain * cfg.negPerPos
    }.sum * runs.size
    val trainS = Catalog.roster.map(n => t.seconds(s"kge.Trainer.train.$n")).sum
    Catalog.roster.foreach { n =>
      ctx.layer(s"kge.Trainer.train.$n.wall_s") = t.seconds(s"kge.Trainer.train.$n")
      ctx.layer(s"kge.Evaluator.evaluate.$n.wall_s") = t.seconds(s"kge.Evaluator.evaluate.$n")
    }
    ctx.layer ++= Seq(
      "kge.Trainer.train.wall_s" -> trainS,
      "kge.Trainer.train.updates" -> updates,
      "kge.Trainer.train.updates_per_s" -> updates / trainS,
      "kge.Evaluator.evaluate.wall_s" ->
        Catalog.roster.map(n => t.seconds(s"kge.Evaluator.evaluate.$n")).sum,
      "kge.Evaluator.evaluate.candidates_scored" ->
        Catalog.roster.size.toDouble * data.testH.length * data.nEnt * runs.size,
      "kge.Evaluator.evaluate.spark_tasks" ->
        Catalog.roster.map(n => ctx.sparkWork(s"kge.Evaluator.evaluate.$n").tasks).sum.toDouble)
  }
}

object Linkpred {

  /** The tiny taxonomy with 4000 products: an IMG test split of a few
    * hundred triples, in a run that fits the benchmark's time budget.
    */
  val scale: SynthConfig = SynthConfig.tiny.copy(nProducts = 4000)

  /** Share of each model's epochs a timed unit trains (`LinkPred.run`'s
    * `epochScale`): short units give the timed phase several units to
    * take the median of. Training is still about 70 % of a unit.
    */
  val epochScale = 0.25

  /** Share of each model's epochs the untimed warm-up trains. */
  val warmupEpochScale = 0.1

  /** A roster model and its training config, with epochs scaled as
    * `LinkPred.run` scales them.
    */
  def makeModel(name: String, data: KgeDataset, scale: Double): (KgeModel, TrainConfig) = {
    val (model, cfg) = LinkPred.makeModel(name, data)
    (model, cfg.copy(epochs = math.max(1, (cfg.epochs * scale).toInt)))
  }

  /** The world's true product facts as a KG: brand, place of origin, leaf
    * category, attribute values and the four concept relations, with
    * product titles as labels and the image side table. This is the input
    * `BenchmarkBuilder` and `KgeData` read; building it takes no
    * construction dataflow.
    */
  def groundTruthKg(ctx: Ctx, world: World): Kg = {
    import ctx.spark.implicits._
    val products = BusinessSynth.products(ctx.spark, world).collect()
    val triples = products.toSeq.flatMap { p =>
      def obj(rel: String, os: Seq[String]) = os.map(o => (p.id, rel, o, Schema.KindObject))
      Seq((p.id, Schema.RdfType, p.leafId, Schema.KindMeta)) ++
        obj(Schema.BrandIs, Seq(p.brandId)) ++ obj(Schema.PlaceOfOrigin, Seq(p.placeId)) ++
        obj(Schema.RelatedScene, p.scenes) ++ obj(Schema.ForCrowd, p.crowds) ++
        obj(Schema.AboutTheme, p.themes) ++ obj(Schema.AppliedTime, p.times) ++
        p.attrs.map { case (a, v) =>
          (p.id, Schema.attrProp(a), Schema.valueEntity(a, v), Schema.KindData)
        }
    }.distinct.toDF("s", "p", "o", "kind")
    val nodes = products.toSeq.map(p => (p.id, p.titleTokens.mkString(" "), Schema.NtProduct, 0))
      .toDF("id", "label", "ntype", "level")
    val images = products.toSeq.filter(_.hasImage).map(p => (p.id, p.imageVec)).toDF("pid", "vec")
    Kg(nodes.localCheckpoint(), triples.localCheckpoint(), images.localCheckpoint(),
      ctx.spark.emptyDataFrame)
  }

  /** Largest allowed gap between a metric from `Evaluator.evaluate` and the
    * same metric from driver-side ranks (absolute for Hits@k and MRR,
    * relative for MR): batched `scoreTails` and per-entity `score` may
    * round differently, which can move a near-tie by one place.
    */
  val tolerance = 0.02

  /** Retrain each model (training is deterministic in its seed; the
    * retraining runs on a small thread pool, outside the timed unit), rank
    * every test triple on the driver with per-entity `score` under the
    * filtered protocol, and compare the metrics with what `Evaluator`
    * reported. Text models never propose the head itself as a tail (their
    * `scoreTails` contract), so the head is no candidate for them here.
    */
  def checkRanks(ctx: Ctx, data: KgeDataset, reported: Seq[(String, Evaluator.Metrics)]): Unit = {
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    val recomputed = try {
      val jobs = reported.map { case (name, _) =>
        pool.submit(new Callable[Array[Int]] { def call(): Array[Int] = driverRanks(name, data) })
      }
      jobs.map(_.get())
    } finally pool.shutdown()
    reported.zip(recomputed).foreach { case ((name, m), ranks) =>
      val n = ranks.length
      def hits(k: Int) = ranks.count(_ <= k).toDouble / n
      val mrr = ranks.map(1.0 / _).sum / n
      val mr = ranks.map(_.toDouble).sum / n
      ctx.check(s"$name: n equals the test size ($n)")(m.n == n && n > 0)
      ctx.check(s"$name: MRR is finite")(!m.mrr.isNaN && !m.mrr.isInfinity)
      val diffs = Seq(hits(1) - m.hits1, hits(3) - m.hits3, hits(10) - m.hits10,
        mrr - m.mrr, (mr - m.mr) / m.mr)
      ctx.check(s"$name: driver-side ranks match Evaluator within $tolerance " +
        s"(max diff ${diffs.map(math.abs).max})")(diffs.forall(d => math.abs(d) <= tolerance))
    }
  }

  private def driverRanks(name: String, data: KgeDataset): Array[Int] = {
    val (model, cfg) = makeModel(name, data, epochScale)
    Trainer.train(model, data, cfg)
    val headExcluded = model.isInstanceOf[TextKgeBase]
    def score(h: Int, r: Int, e: Int) =
      if (headExcluded && e == h) -1e9 else model.score(h, r, e)
    Array.tabulate(data.testH.length) { i =>
      val (h, r, t) = (data.testH(i), data.testR(i), data.testT(i))
      val gold = score(h, r, t)
      if (gold.isNaN || gold.isInfinity) model.rankTransform(data.nEnt)
      else {
        val known = data.knownTails(h, r)
        var greater = 0
        var ties = 0
        var e = 0
        while (e < data.nEnt) {
          if (e != t && java.util.Arrays.binarySearch(known, e) < 0) {
            val s = score(h, r, e)
            if (s > gold) greater += 1 else if (s == gold) ties += 1
          }
          e += 1
        }
        model.rankTransform(1 + greater + ties / 2)
      }
    }
  }
}
