package repro.exp

import org.apache.spark.JobCounter
import org.apache.spark.sql.functions.expr
import repro.{SparkSpec, TestFixtures}
import repro.benchmark.{BenchConfig, BenchmarkBuilder}
import repro.core.KgBuilder
import repro.jobs.TableJob
import repro.kge.{Evaluator, FreqBaseline, KgeData, KgeDataset, KgeModel, Trainer}
import repro.kge.Evaluator.Metrics
import repro.synth.SynthConfig

/** Tests of the experiment layer: dataset collection, the frequency
  * diagnostic baseline, model factory, concurrent training and ranking,
  * table rendering, and the table registry with its job's arguments.
  */
class ExpSpec extends SparkSpec {
  lazy val kg = TestFixtures.kg

  val benchCfg = BenchConfig(name = "exp-tiny", nRelations = 10, alphaHead = 1.0,
    alphaTail = 0.8, nDev = 30, nTest = 120)
  lazy val bench = BenchmarkBuilder.build(spark, kg, benchCfg).cache()
  lazy val data = KgeData.fromBenchmark(spark, kg, bench)

  test("KgeData.fromBenchmark roundtrips ids and splits consistently") {
    assert(data.entIds.distinct.length === data.nEnt)
    assert(data.relIds.length === 10)
    assert(data.nTrain === bench.train.count())
    assert(data.testH.length === bench.test.count())
    // every index within range
    (data.trainH ++ data.trainT).foreach(i => assert(i >= 0 && i < data.nEnt))
    data.trainR.foreach(r => assert(r >= 0 && r < data.nRel))
  }

  test("truth sets contain every split triple") {
    var i = 0
    while (i < data.nTrain) {
      val tails = data.knownTails(data.trainH(i), data.trainR(i))
      assert(java.util.Arrays.binarySearch(tails, data.trainT(i)) >= 0)
      i += 1
    }
    data.testH.indices.foreach { j =>
      val tails = data.knownTails(data.testH(j), data.testR(j))
      assert(java.util.Arrays.binarySearch(tails, data.testT(j)) >= 0)
    }
  }

  test("text features exist for every entity; images only for products with photos") {
    assert(data.entText.length === data.nEnt)
    data.entText.foreach(v => assert(v.length > 0))
    val mm = data.entImage.count(_ != null)
    assert(mm > 0 && mm < data.nEnt)
    data.entIds.zip(data.entImage).foreach { case (id, img) =>
      if (img != null) assert(id.startsWith("prod:"))
    }
  }

  test("KG, dataset and metrics do not depend on the shuffle partition count") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def run(partitions: Long) = {
      spark.conf.set(key, partitions)
      val kg = KgBuilder.build(spark, TestFixtures.sources)
      val checksum = kg.triples.agg(expr("bit_xor(xxhash64(s, p, o, kind))")).head().getLong(0)
      val d = KgeData.fromBenchmark(spark, kg, BenchmarkBuilder.build(spark, kg, benchCfg))
      val (model, cfg) = LinkPred.makeModel("TransE", d)
      Trainer.train(model, d, cfg.copy(epochs = 10))
      (checksum, contents(d), Evaluator.evaluate(spark, model, d))
    }
    val (one, many) = try (run(1), run(64)) finally spark.conf.set(key, saved)
    assert(one._1 === many._1, "KG checksum")
    val differing = one._2.keys.filter(k => one._2(k) != many._2(k))
    assert(differing.isEmpty, s"KgeDataset fields differ: ${differing.mkString(", ")}")
    assert(one._3 === many._3, "TransE metrics")
  }

  /** Every array of a dataset by field name, as comparable values. */
  private def contents(d: KgeDataset): Map[String, Any] = {
    var truth = Map.empty[Long, Seq[Int]]
    d.truth.forEach((k, v) => truth += k -> v.toSeq)
    Map("entIds" -> d.entIds.toSeq, "relIds" -> d.relIds.toSeq,
      "trainH" -> d.trainH.toSeq, "trainR" -> d.trainR.toSeq, "trainT" -> d.trainT.toSeq,
      "devH" -> d.devH.toSeq, "devR" -> d.devR.toSeq, "devT" -> d.devT.toSeq,
      "testH" -> d.testH.toSeq, "testR" -> d.testR.toSeq, "testT" -> d.testT.toSeq,
      "entText" -> d.entText.map(_.toSeq).toSeq,
      "entImage" -> d.entImage.map(Option(_).map(_.toSeq)).toSeq, "truth" -> truth)
  }

  test("FreqBaseline beats random ranking substantially") {
    val m = Evaluator.evaluate(spark, new FreqBaseline(data), data)
    assert(m.mr < data.nEnt / 4.0, s"$m")
    assert(m.hits10 > 0.2, s"$m")
  }

  test("makeModel constructs every roster model with its paper name") {
    val names = LinkPred.singleModalImg ++ LinkPred.multiModal ++ Seq("GenKGC")
    names.distinct.foreach { n =>
      val (model, cfg) = LinkPred.makeModel(n, data)
      assert(model.name === n)
      assert(cfg.epochs > 0)
      assert(model.nEnt === data.nEnt)
    }
  }

  /** Hash of the bits of every tail score of the first 5 test queries, per
    * roster model trained alone at `epochScale` 0.05. Any change to the
    * order of a model's float operations, in training or in scoring,
    * moves its hash; the models share the TransE kernel (`VecOps`), so a
    * change there can move several.
    */
  val pinnedScoreHash: Map[String, Long] = Map(
    "TransE" -> -7925429563222630193L,
    "TransH" -> -7219963591862122289L,
    "TransD" -> -3093706265008673841L,
    "DistMult" -> -188680527682811441L,
    "ComplEx" -> -6857348532134911793L,
    "TuckER" -> 1589693974294214351L,
    "KG-BERT" -> -6786823685835235121L,
    "StAR" -> -6419910572947709745L,
    "TransAE" -> -6391908948227923542L,
    "RSME" -> -6694427152056685550L,
    "MKGformer" -> 3270542122367833544L,
    "GenKGC" -> -8722618640117702449L)

  /** Test metrics of each roster model trained at `epochScale` 0.05,
    * recorded when ranking still ran as a Spark job per model: ranking on
    * the calling thread must give them bit for bit.
    */
  val pinnedMetrics: Map[String, Metrics] = Map(
    "TransE" -> Metrics(0.275, 0.525, 0.7916666666666666, 9.691666666666666,
      0.4448814600924711, 120),
    "TransH" -> Metrics(0.35833333333333334, 0.6333333333333333, 0.85, 9.008333333333333,
      0.5211280268309989, 120),
    "TransD" -> Metrics(0.25, 0.5416666666666666, 0.8583333333333333, 6.933333333333334,
      0.44082461016034635, 120),
    "DistMult" -> Metrics(0.06666666666666667, 0.08333333333333333, 0.125, 329.59166666666664,
      0.08764708804399121, 120),
    "ComplEx" -> Metrics(0.08333333333333333, 0.15833333333333333, 0.2, 207.66666666666666,
      0.13372702107493634, 120),
    "TuckER" -> Metrics(0.20833333333333334, 0.43333333333333335, 0.725, 40.38333333333333,
      0.37155217883223274, 120),
    "KG-BERT" -> Metrics(0.24166666666666667, 0.49166666666666664, 0.8833333333333333,
      5.566666666666666, 0.42339360099776796, 120),
    "StAR" -> Metrics(0.26666666666666666, 0.44166666666666665, 0.8416666666666667, 6.175,
      0.4129804360533414, 120),
    "TransAE" -> Metrics(0.43333333333333335, 0.7, 0.8833333333333333, 4.9,
      0.5951789867094487, 120),
    "RSME" -> Metrics(0.3, 0.5833333333333334, 0.8833333333333333, 5.425,
      0.494641927553473, 120),
    "MKGformer" -> Metrics(0.4166666666666667, 0.6583333333333333, 0.8916666666666667,
      4.608333333333333, 0.5716465218380182, 120),
    "GenKGC" -> Metrics(0.30833333333333335, 0.5, 0.8583333333333333, 26.7,
      0.459685560440702, 120))

  private def scoreHash(model: KgeModel, d: KgeDataset): Long =
    (0 until 5).foldLeft(17L) { (acc, i) =>
      model.scoreTails(d.testH(i), d.testR(i))
        .foldLeft(acc)((a, s) => a * 31 + java.lang.Double.doubleToLongBits(s))
    }

  val roster: Seq[String] = LinkPred.singleModalImg ++ LinkPred.multiModal ++ Seq("GenKGC")

  test("concurrent LinkPred.run gives the metrics of sequential runs, in roster order") {
    val epochScale = 0.05
    val d = data  // collected before counting: collecting starts Spark jobs
    val (runs, jobs) =
      JobCounter.count(spark.sparkContext)(LinkPred.run(spark, d, roster, epochScale))
    assert(jobs === 0, "Spark jobs started by LinkPred.run")
    assert(runs.map(_.model) === roster)
    val hashes = roster.zip(runs).map { case (n, run) =>
      val (model, cfg) = LinkPred.makeModel(n, d)
      Trainer.train(model, d, cfg.copy(epochs = math.max(1, (cfg.epochs * epochScale).toInt)))
      assert(run.metrics === Evaluator.evaluate(spark, model, d), n)
      assert(run.metrics === pinnedMetrics(n), n)
      n -> scoreHash(model, d)
    }.toMap
    assert(hashes === pinnedScoreHash, "tail scores moved")
  }

  test("LinkPred.run submits the longest model first and returns roster order") {
    val order = LinkPred.longestFirst(roster.map(n => LinkPred.makeModel(n, data)._2)).map(roster)
    assert(order === Seq("TuckER", "TransE", "TransH", "TransD", "TransAE", "RSME", "MKGformer",
      "KG-BERT", "StAR", "GenKGC", "DistMult", "ComplEx"))
    val names = Seq("DistMult", "TuckER")
    assert(LinkPred.run(spark, data, names, epochScale = 0.01).map(_.model) === names)
  }

  test("LinkPred.run rejects an empty test split before it starts a pool") {
    val empty = data.copy(name = "exp-empty-test", testH = Array.emptyIntArray,
      testR = Array.emptyIntArray, testT = Array.emptyIntArray)
    val e = intercept[IllegalArgumentException](LinkPred.run(spark, empty, LinkPred.multiModal))
    assert(e.getMessage.contains("exp-empty-test"), e.getMessage)
    assert(e.getMessage.contains(s"train ${data.nTrain}"), e.getMessage)
    val poolThreads = Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread])
      .filter(_.getName.startsWith("LinkPred-exp-empty-test"))
    assert(poolThreads.forall(!_.isAlive), poolThreads.map(_.getName).mkString(", "))
  }

  test("a failing model's own exception surfaces from LinkPred.run") {
    val e = intercept[IllegalArgumentException](LinkPred.run(spark, data, Seq("NoSuchModel")))
    assert(e.getMessage.contains("NoSuchModel"), e.getMessage)
  }

  test("a model failing on its pool thread surfaces its own exception, unwrapped") {
    // A relation index out of range fails inside Trainer.train.
    val bad = data.copy(name = "exp-bad-train", trainR = data.trainR.map(_ => data.nRel))
    intercept[ArrayIndexOutOfBoundsException](LinkPred.run(spark, bad, Seq("TransE", "DistMult")))
  }

  test("an unknown model fails LinkPred.run before any training starts") {
    val named = data.copy(name = "exp-unknown-model")
    val e = intercept[IllegalArgumentException](
      LinkPred.run(spark, named, Seq("TransE", "NoSuchModel")))
    assert(e.getMessage === "unknown link-prediction model: NoSuchModel")
    val poolThreads = Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread])
      .filter(_.getName.startsWith("LinkPred-exp-unknown-model"))
    assert(poolThreads.isEmpty, poolThreads.map(_.getName).mkString(", "))
  }

  test("link-prediction table renders paper and measured columns") {
    val runs = Seq(LinkPred.ModelRun("TransE",
      Evaluator.Metrics(0.1, 0.2, 0.3, 100.0, 0.15, 10), 1.0))
    val table = Tables.linkPredTable("T", Tables.paperImg, runs)
    assert(table.contains("TransE"))
    assert(table.contains("0.150"))  // paper hits@1
    assert(table.contains("0.100"))  // ours hits@1
    assert(table.contains("(not run)"))
  }

  test("low-resource table renders matched rows") {
    val t = Tables.lowResourceTable("T", Tables.paperTableVI,
      Seq(("mPLUG-base", 40.0, 60.0)))
    assert(t.contains("mPLUG-base"))
    assert(t.contains("40.00"))
    assert(t.contains("37.88"))  // paper value
  }

  test("Table I renderer includes every headline metric") {
    val t = Tables.tableI(spark, kg)
    Tables.paperTableI.foreach { case (metric, _) => assert(t.contains(metric)) }
    assert(t.contains("# relation types"))
  }

  test("Table II renderer includes paper and ours rows") {
    val t = Tables.tableII(kg, Seq(bench))
    assert(t.contains("paper:OpenBG-IMG"))
    assert(t.contains("ours:exp-tiny"))
  }

  test("the registry holds Tables I to VII in paper order") {
    assert(Experiments.tables.map(_.name) ===
      Seq("tableI", "tableII", "tableIII", "tableIV", "tableV", "tableVI", "tableVII"))
  }

  test("TableJob takes table names and --tiny, and rejects anything else with its usage") {
    assert(TableJob.parse(Seq("tableVI", "tableVII", "--tiny")) ===
      Right((Seq(Experiments.tableVI, Experiments.tableVII), SynthConfig.tiny)))
    assert(TableJob.parse(Seq("tableI")).map(_._2) === Right(SynthConfig.bench))
    Seq(Seq("tableVIII"), Seq("tableI", "--tinny"), Seq(), Seq("--tiny")).foreach { bad =>
      val error = TableJob.parse(bad).swap.getOrElse(fail(s"accepted ${bad.mkString(" ")}"))
      assert(error.contains("tables: tableI tableII tableIII tableIV tableV tableVI tableVII"), error)
    }
  }

  test("Table I through the registry's lazy inputs equals Tables.tableI") {
    val in = new Experiments.Inputs(spark, (TestFixtures.world, kg))
    new Experiments.Inputs(spark, fail("inputs built before first use"))
    assert(Experiments.tableI.text(in) === Tables.tableI(spark, kg))
  }
}
