package repro.exp

import org.apache.spark.sql.functions.expr
import repro.{SparkSpec, TestFixtures}
import repro.benchmark.{BenchConfig, BenchmarkBuilder}
import repro.core.KgBuilder
import repro.kge.{Evaluator, FreqBaseline, KgeData, KgeDataset, Trainer}

/** Tests of the experiment layer: dataset collection, the frequency
  * diagnostic baseline, model factory, and table rendering.
  */
class ExpSpec extends SparkSpec {
  lazy val kg = TestFixtures.kg

  val benchCfg = BenchConfig(name = "exp-tiny", nRelations = 10, alphaHead = 1.0,
    alphaTail = 0.8, nDev = 30, nTest = 120)
  lazy val bench = BenchmarkBuilder.build(spark, kg, benchCfg).cache()
  lazy val data = KgeData.fromBenchmark(spark, kg, bench)

  test("datasetFor roundtrips ids and splits consistently") {
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
    val world = TestFixtures.world
    val t = Tables.tableI(spark, world, kg)
    Tables.paperTableI.foreach { case (metric, _) => assert(t.contains(metric)) }
    assert(t.contains("# relation types"))
  }

  test("Table II renderer includes paper and ours rows") {
    val t = Tables.tableII(kg, Seq(bench))
    assert(t.contains("paper:OpenBG-IMG"))
    assert(t.contains("ours:exp-tiny"))
  }
}
