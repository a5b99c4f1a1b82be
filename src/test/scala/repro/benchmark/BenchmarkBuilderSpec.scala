package repro.benchmark

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.core.Schema

class BenchmarkBuilderSpec extends SparkSpec {
  lazy val kg = TestFixtures.kg

  val cfg: BenchConfig = BenchConfig(name = "tiny-bench", nRelations = 12,
    alphaHead = 1.0, alphaTail = 0.6, alphaTriples = 0.9, nDev = 50, nTest = 100)

  lazy val bench: Benchmark = BenchmarkBuilder.build(spark, kg, cfg).cache()

  test("benchmarkable triples exclude literal-tailed data properties") {
    val rels = BenchmarkBuilder.benchmarkableTriples(kg)
      .select("r").distinct().collect().map(_.getString(0)).toSet
    assert(!rels.contains(Schema.RdfsLabel))
    assert(!rels.contains(Schema.RdfsComment))
    assert(rels.contains(Schema.BrandIs))
    assert(rels.exists(_.startsWith("attr:")))
  }

  test("relation refinement keeps exactly the N most frequent relations") {
    val base = BenchmarkBuilder.benchmarkableTriples(kg)
    val refined = BenchmarkBuilder.refineRelations(base, 5).collect()
    assert(refined.length === 5)
    val allFreq = base.groupBy("r").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val minKept = refined.map(r => allFreq(r.getString(0))).min
    val dropped = allFreq.filterNot { case (r, _) => refined.exists(_.getString(0) == r) }
    assert(dropped.values.forall(_ <= minKept))
  }

  test("head-entity filtering samples head-relation entities at a higher rate") {
    import spark.implicits._
    // Controlled input: 1000 heads only under the frequent relation
    // "top" (rank 0 → head-relation), 1000 only under the rare "rare"
    // (rank 1 → tail-relation). nRelations=2, headRelFraction=0.5.
    val base = ((0 until 1000).flatMap(i => Seq((s"H$i", "top", "t1"), (s"H$i", "top", "t2"))) ++
      (0 until 1000).map(i => (s"T$i", "rare", "t3"))).toDF("h", "r", "t")
    val cfg2 = BenchConfig(name = "x", nRelations = 2, headRelFraction = 0.5,
      alphaHead = 0.9, alphaTail = 0.2, seed = 11L)
    val rels = BenchmarkBuilder.refineRelations(base, 2)
    val heads = BenchmarkBuilder.filterHeadEntities(base, rels, cfg2).collect()
      .map(_.getString(0))
    val keptHead = heads.count(_.startsWith("H")) / 1000.0
    val keptTail = heads.count(_.startsWith("T")) / 1000.0
    assert(math.abs(keptHead - 0.9) < 0.05, s"keptHead=$keptHead")
    assert(math.abs(keptTail - 0.2) < 0.05, s"keptTail=$keptTail")
  }

  test("triple sampling respects the alpha rate approximately") {
    val base = BenchmarkBuilder.benchmarkableTriples(kg)
    val rels = BenchmarkBuilder.refineRelations(base, cfg.nRelations)
    val heads = BenchmarkBuilder.filterHeadEntities(base, rels, cfg)
    val full = BenchmarkBuilder.sampleTriples(base, rels, heads, cfg.copy(alphaTriples = 1.0))
    val half = BenchmarkBuilder.sampleTriples(base, rels, heads, cfg.copy(alphaTriples = 0.5))
    val rate = half.count().toDouble / full.count()
    assert(math.abs(rate - 0.5) < 0.05)
  }

  test("build is deterministic") {
    val again = BenchmarkBuilder.build(spark, kg, cfg)
    assert(bench.train.count() === again.train.count())
    assert(bench.test.orderBy("h", "r", "t").collect().toSeq ===
      again.test.orderBy("h", "r", "t").collect().toSeq)
  }

  test("split leaves only its three checkpointed splits cached") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val (train, dev, test) = BenchmarkBuilder.split(spark, BenchmarkBuilder.benchmarkableTriples(kg), cfg)
    Seq(train, dev, test).foreach(_.count())
    val added = sc.getPersistentRDDs.keySet -- before
    assert(added === Seq(train, dev, test).flatMap(TestFixtures.checkpointRdds).toSet)
  }

  test("split sizes honour the requested dev/test counts (minus coverage drops)") {
    assert(bench.dev.count() <= cfg.nDev)
    assert(bench.test.count() <= cfg.nTest)
    assert(bench.dev.count() > cfg.nDev * 0.7)
    assert(bench.test.count() > cfg.nTest * 0.7)
  }

  test("no dev/test triple leaks into train") {
    assert(bench.train.join(bench.dev, Seq("h", "r", "t"), "left_semi").count() === 0)
    assert(bench.train.join(bench.test, Seq("h", "r", "t"), "left_semi").count() === 0)
  }

  test("dev and test are disjoint") {
    assert(bench.dev.join(bench.test, Seq("h", "r", "t"), "left_semi").count() === 0)
  }

  test("every dev/test head and tail is covered by train") {
    val trainEnts = bench.train.select(col("h") as "e")
      .union(bench.train.select(col("t") as "e")).distinct()
    for (split <- Seq(bench.dev, bench.test)) {
      val badH = split.join(trainEnts.withColumnRenamed("e", "h"), Seq("h"), "left_anti")
      val badT = split.join(trainEnts.withColumnRenamed("e", "t"), Seq("t"), "left_anti")
      assert(badH.count() === 0)
      assert(badT.count() === 0)
    }
  }

  test("every dev/test relation appears in train") {
    val trainRels = bench.train.select("r").distinct()
    assert(bench.test.join(trainRels, Seq("r"), "left_anti").count() === 0)
  }

  test("entity vocabulary covers exactly the triples' entities") {
    val all = bench.train.unionByName(bench.dev).unionByName(bench.test)
    val ents = all.select(col("h") as "entity").union(all.select(col("t") as "entity"))
      .distinct()
    // benchmark.entities was built pre-split from the same triple set
    assert(ents.join(bench.entities, Seq("entity"), "left_anti").count() === 0)
  }

  test("image-restricted benchmark heads are all multimodal products") {
    val imgCfg = cfg.copy(name = "tiny-img", requireImage = true, nRelations = 8)
    val img = BenchmarkBuilder.build(spark, kg, imgCfg)
    val mm = kg.images.select(col("pid") as "h")
    val badHeads = img.train.select("h").distinct().join(mm, Seq("h"), "left_anti")
    assert(badHeads.count() === 0)
    assert(img.multimodalEntities.count() > 0)
  }

  test("stats tuple matches the DataFrames") {
    val s = bench.stats
    assert(s._1 === "tiny-bench")
    assert(s._2 === bench.entities.count())
    assert(s._3 === cfg.nRelations.toLong)
    assert(s._4 === bench.train.count())
  }

  test("relation frequency follows a long-tail distribution") {
    val base = BenchmarkBuilder.benchmarkableTriples(kg)
    val freqs = base.groupBy("r").count().orderBy(desc("count"))
      .collect().map(_.getLong(1))
    assert(freqs.head > freqs.last * 5, "top relation should dominate the tail")
  }
}
