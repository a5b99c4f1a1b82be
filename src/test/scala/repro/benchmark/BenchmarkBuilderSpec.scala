package repro.benchmark

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.core.Schema
import repro.exp.BenchWorld

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

  test("split leaves only train's checkpoint cached") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val (train, dev, test) = BenchmarkBuilder.split(spark, BenchmarkBuilder.benchmarkableTriples(kg), cfg)
    Seq(train, dev, test).foreach(_.count())
    val added = sc.getPersistentRDDs.keySet -- before
    assert(added.nonEmpty)
    assert(added === TestFixtures.checkpointRdds(train))
    assert(Seq(dev, test).forall(TestFixtures.checkpointRdds(_).isEmpty))
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

  /** SHA-256 of a DataFrame's schema and its rows in sorted order. */
  private def digest(df: DataFrame): String = {
    val md = MessageDigest.getInstance("SHA-256")
    md.update(df.schema.simpleString.getBytes(UTF_8))
    df.collect().map(_.mkString("\t")).sorted.foreach(r => md.update(("\n" + r).getBytes(UTF_8)))
    md.digest().map("%02x".format(_)).mkString
  }

  // Digests recorded before the split and the relation ranking moved to the
  // driver: train, dev, test, entities, relations, multimodal entities and
  // refineRelations(base, nRelations), in that order.
  private val pinned: Seq[(BenchConfig, Seq[String])] = Seq(
    cfg -> Seq(
      "99f574f65a804484a310e8af9cfadaf15d5e8ee0db91b38fdc435b048427c32c",
      "9e20c2da7390b72f95389f15ad7e42eda04574a4be21c3cc8838d5c7c62d536d",
      "0a2cbcbdd74aa910bbba5e8b80ca9ba155e94af0d7197034b2aaa53360ab2b85",
      "340247fae93f598fc31c69eeb3faa268b5c97d3dcb0a622e727d7340df0f1820",
      "c5e29a3b554fe009e07e9755c905428a6272eab28ef1c2d4f687f93e60e4ec4a",
      "40ebb9d8d36e93b883f87886eda9f4e628706d78968ec785484652d7124515d3",
      "6b06c204e846c6862cebe0ea374fecedff9dd115b504f942a8efcbee6b0233f9"),
    BenchWorld.imgConfig -> Seq(
      "12a72cf09718b3defdf468435f662c158e2661a94f4d72db1d10165c11ade7e9",
      "c87a80ee1112622360b4373e2ecc4e89686b3df62d5d533aa111b20283dd0c5b",
      "9646ed80c6a8c97d43920128eb9d4b556386206896aa81544a471c8ac2eaced1",
      "755a70ca3ce2bf0d8b4ad74fa229a2eef33821d57c1caa2feeb93117da614589",
      "5f5cc69aa14374237869160d627b3c48e1cc66493bd0521f57157561b6f9e302",
      "903d183eca939cdefda780d705a5e662fcdf36423542c65e5d32bf21473b0585",
      "a459803c2cd4e39111b409dcb2e9be01266c1de53cc6c6a2da54c3db90d176c2"),
    BenchWorld.b500Config -> Seq(
      "9610d64991fb8a7cf414c565ae7d42e1b3bc233e6ebeb884454b9864c287d364",
      "d4fb593736f3fd844a95e3c823bb5c2c16a941d805a3ffb7c00d77d582ef88c1",
      "9646ed80c6a8c97d43920128eb9d4b556386206896aa81544a471c8ac2eaced1",
      "d93f80c777dc0f3dfde07900357ca2b276da02f46e35eb3864f6e94847f7f005",
      "7a831781a78c7bb0a2cf898ebe854695894f0af9a50a6b95ae88cd081dae5708",
      "67ca433126ac2f8530f4356f24376a8f6ad586e2253ac7d1b72fdaddf39bd297",
      "6672d65453f52e6ba05cc77c6982960c10d5dcf02a20a5d9de41bfdd9e9165ca"),
    BenchWorld.b500LConfig -> Seq(
      "4b1e8c63e4a864e1d45ed416f4db92260832a7ae7efef9b61045905a1e7a565e",
      "d85370a13780c2c27bf4b7b53b0036345a1cc3f0e7949e4295d8282b2dd5adbe",
      "9646ed80c6a8c97d43920128eb9d4b556386206896aa81544a471c8ac2eaced1",
      "87171b1bd8142a398ae404aca3375d75869652dffd49766e7bb5f83abe87b4d0",
      "7a831781a78c7bb0a2cf898ebe854695894f0af9a50a6b95ae88cd081dae5708",
      "40ebb9d8d36e93b883f87886eda9f4e628706d78968ec785484652d7124515d3",
      "6672d65453f52e6ba05cc77c6982960c10d5dcf02a20a5d9de41bfdd9e9165ca"))

  for ((c, want) <- pinned) test(s"${c.name} on the tiny KG is pinned bit for bit") {
    val b = BenchmarkBuilder.build(spark, kg, c)
    val base0 = BenchmarkBuilder.benchmarkableTriples(kg)
    val base = if (c.requireImage) base0.join(kg.images.select(col("pid") as "h"), Seq("h"), "left_semi")
               else base0
    val got = Seq(b.train, b.dev, b.test, b.entities, b.relations, b.multimodalEntities,
      BenchmarkBuilder.refineRelations(base, c.nRelations)).map(digest)
    assert(got === want)
  }

  test("relation frequency follows a long-tail distribution") {
    val base = BenchmarkBuilder.benchmarkableTriples(kg)
    val freqs = base.groupBy("r").count().orderBy(desc("count"))
      .collect().map(_.getLong(1))
    assert(freqs.head > freqs.last * 5, "top relation should dominate the tail")
  }
}
