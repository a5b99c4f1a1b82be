package repro.synth

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}

class BusinessSynthSpec extends SparkSpec {
  lazy val world: World = TestFixtures.world
  lazy val cfg: SynthConfig = world.cfg

  test("products dataset has nProducts deterministic rows") {
    val a = BusinessSynth.products(spark, world).collect()
    val b = BusinessSynth.products(spark, world).collect()
    assert(a.length === cfg.nProducts)
    assert(a.map(_.id).toSeq === b.map(_.id).toSeq)
    assert(a.map(_.brandId).toSeq === b.map(_.brandId).toSeq)
  }

  test("products and reviews generated without Spark equal the collected rows, field by field") {
    val collected = BusinessSynth.products(spark, world).collect().toSeq
    val generated = BusinessSynth.productRecords(world)
    assert(generated.length === collected.length)
    generated.zip(collected).foreach { case (g, c) =>
      // Case-class equality compares arrays by reference.
      assert(g.copy(imageVec = null) === c.copy(imageVec = null), g.id)
      assert(g.imageVec.sameElements(c.imageVec), g.id)
    }
    val reviews = BusinessSynth.reviews(spark, world).collect().toSeq
    assert(reviews.length === cfg.nProducts * cfg.reviewsPerProduct)
    assert(BusinessSynth.reviewRecords(world) === reviews)
  }

  test("raw products keep the platform category annotation") {
    val raw = BusinessSynth.rawProducts(spark, world)
    val leafIds = world.categoryLeaves.map(_.id).toSet
    raw.collect().foreach(r => assert(leafIds.contains(r.leafId)))
  }

  test("raw brand strings are noisy at roughly the configured rates") {
    val raw = BusinessSynth.rawProducts(spark, world).collect()
    val canonical = world.brands.map(_.label).toSet
    val aliases = world.brands.flatMap(_.aliases).toSet
    val n = raw.length.toDouble
    val missing = raw.count(_.brandText.isEmpty) / n
    val alias = raw.count(r => aliases.contains(r.brandText)) / n
    val exact = raw.count(r => canonical.contains(r.brandText)) / n
    val noise = cfg.noise
    assert(math.abs(missing - noise.brandMissingRate) < 0.05)
    assert(math.abs(alias - noise.brandAliasRate) < 0.06)
    assert(exact > 0.5)
    // the remainder are typos: non-empty, not canonical, not alias
    val typo = raw.count(r => r.brandText.nonEmpty &&
      !canonical.contains(r.brandText) && !aliases.contains(r.brandText)) / n
    assert(math.abs(typo - noise.brandTypoRate) < 0.06)
  }

  test("raw place strings use the variant form at the configured rate") {
    val raw = BusinessSynth.rawProducts(spark, world).collect()
    val variant = raw.count(_.placeText.endsWith(" shi")).toDouble / raw.length
    assert(math.abs(variant - cfg.noise.placeVariantRate) < 0.06)
  }

  test("raw attribute maps drop some attributes but never invent them") {
    val gt = TestFixtures.gtProducts.map(p => p.id -> p.attrs.toMap).toMap
    val raw = BusinessSynth.rawProducts(spark, world).collect()
    raw.foreach { r =>
      val full = gt(r.pid)
      r.attrs.foreach { case (k, v) => assert(full.get(k).contains(v)) }
      assert(r.attrs.size <= full.size)
    }
    val totalKept = raw.map(_.attrs.size).sum.toDouble
    val totalFull = raw.map(r => gt(r.pid).size).sum.toDouble
    assert(totalKept / totalFull > 0.8)
  }

  test("corpus contains one title doc per product plus reviews") {
    val corpus = BusinessSynth.corpus(spark, world)
    val byKind = corpus.groupBy("kind").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(byKind("title") === cfg.nProducts)
    assert(byKind("review") === cfg.nProducts.toLong * cfg.reviewsPerProduct)
  }

  test("external place sources have heterogeneous but consistent schemas") {
    val a = BusinessSynth.externalPlacesA(spark, world)
    val b = BusinessSynth.externalPlacesB(spark, world)
    assert(a.columns.toSeq === Seq("qid", "nameLabel", "adminLevel", "parentQid"))
    assert(b.columns.toSeq === Seq("code", "name", "levelName", "parentCode"))
    assert(a.count() === world.places.size)
    assert(b.count() === world.places.count(_.level >= 2))
    // Source B has no countries.
    assert(b.filter(col("levelName") === "country").count() === 0)
  }

  test("external brand registry covers all brands with aliases") {
    val reg = BusinessSynth.externalBrands(spark, world).collect()
    assert(reg.length === cfg.nBrands)
    assert(reg.map(_.getString(1)).distinct.length === cfg.nBrands)
  }

  test("market texts reference real market-segment concept labels") {
    val labels = world.conceptLeaves("market").map(_.label).toSet
    val raw = BusinessSynth.rawProducts(spark, world).collect()
    raw.flatMap(_.marketTexts).foreach(m => assert(labels.contains(m)))
    assert(raw.exists(_.marketTexts.nonEmpty))
  }

  test("image vectors survive the DataFrame round trip") {
    val withImg = BusinessSynth.rawProducts(spark, world)
      .filter(col("hasImage")).limit(5).collect()
    withImg.foreach(r => assert(r.imageVec.length === cfg.imageDim))
  }
}
