package repro.synth

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

/** A raw (noisy) product record as scraped from the "platform": category
  * annotation is present (products are sampled per leaf node, as in the
  * paper), but brand/place are free-text strings with aliases, typos,
  * variants, and missing values; attributes may be partially dropped.
  * `gtBrand`/`gtPlace` are ground-truth columns for *test assertions
  * only* — the construction pipeline never reads them.
  */
final case class RawProduct(
    pid: String,
    title: String,
    leafId: String,
    brandText: String,
    placeText: String,
    attrs: Map[String, String],
    marketTexts: Seq[String],
    description: String,
    hasImage: Boolean,
    imageVec: Array[Float],
    gtBrand: String,
    gtPlace: String)

/** A row of the raw text corpus the concept extractor runs over. */
final case class CorpusDoc(docId: String, kind: String, productId: String, text: String)

/** Spark generators for every raw source consumed by the construction
  * pipeline (Section II of the paper). All are deterministic in the
  * `World`'s config; generation is distributed via `spark.range` +
  * per-row seeded RNG, so partitioning never affects content.
  */
object BusinessSynth {

  /** Ground-truth products (not visible to the pipeline; used to derive
    * raw sources, gold task labels, and test assertions).
    */
  def products(spark: SparkSession, world: World): Dataset[ProductRecord] = {
    import spark.implicits._
    spark.range(world.cfg.nProducts).map(i => world.product(i))
  }

  /** Noisy raw product rows — the pipeline's main input. */
  def rawProducts(spark: SparkSession, world: World): Dataset[RawProduct] = {
    import spark.implicits._
    val cfg = world.cfg
    products(spark, world).map { p =>
      val r = new java.util.Random(Vocab.mix(cfg.seed * 77L + p.idx))
      val brand = world.brandById(p.brandId)
      val u = r.nextDouble()
      val n = cfg.noise
      val brandText =
        if (u < n.brandMissingRate) ""
        else if (u < n.brandMissingRate + n.brandTypoRate) Vocab.typo(brand.label, p.idx)
        else if (u < n.brandMissingRate + n.brandTypoRate + n.brandAliasRate)
          brand.aliases(r.nextInt(brand.aliases.size))
        else brand.label
      val placeLbl = world.placeById.get(p.placeId).map(_.label).getOrElse("")
      val placeText =
        if (r.nextDouble() < n.placeVariantRate) s"$placeLbl shi" else placeLbl
      val keptAttrs = p.attrs.filter(_ => r.nextDouble() >= n.attrDropRate).toMap
      val desc = s"${p.titleTokens.mkString(" ")} . " +
        keptAttrs.map { case (k, v) => s"$k $v" }.mkString(" , ")
      val marketTexts = p.markets.map(world.conceptLabel2)
      RawProduct(p.id, p.titleTokens.mkString(" "), p.leafId, brandText, placeText,
        keptAttrs, marketTexts, desc, p.hasImage, p.imageVec, p.brandId, p.placeId)
    }
  }

  /** Reviews with gold labels (IE triples + concept mentions). */
  def reviews(spark: SparkSession, world: World): Dataset[ReviewRecord] = {
    import spark.implicits._
    products(spark, world).flatMap(p => world.reviews(p))
  }

  /** Text corpus for bottom-up concept extraction: titles + reviews. */
  def corpus(spark: SparkSession, world: World): Dataset[CorpusDoc] = {
    import spark.implicits._
    val titles = products(spark, world)
      .map(p => CorpusDoc(s"title:${p.idx}", "title", p.id, p.titleTokens.mkString(" ")))
    val revs = reviews(spark, world)
      .map(rv => CorpusDoc(rv.reviewId, "review", rv.productId, rv.text))
    titles.union(revs)
  }

  /** External place source A — "Wikidata-like" schema:
    * (qid, nameLabel, adminLevel: Int, parentQid). Covers ALL levels.
    */
  def externalPlacesA(spark: SparkSession, world: World): DataFrame = {
    import spark.implicits._
    val byId = world.places.map(p => p.id -> p).toMap
    world.places.map { p =>
      (s"Q${p.id.replace("place:", "").replace(":", "_")}",
       p.label, p.level,
       if (p.parent.isEmpty) null
       else s"Q${byId(p.parent).id.replace("place:", "").replace(":", "_")}")
    }.toDF("qid", "nameLabel", "adminLevel", "parentQid")
  }

  /** External place source B — "OpenKG-like" schema:
    * (code, name, levelName: String, parentCode). Covers levels 2..5 only
    * (no countries), with a disjoint id space — the schema mapper must
    * reconcile both sources by (label, level, parentLabel).
    */
  def externalPlacesB(spark: SparkSession, world: World): DataFrame = {
    import spark.implicits._
    val byId = world.places.map(p => p.id -> p).toMap
    val levelName = Map(2 -> "province", 3 -> "city", 4 -> "county", 5 -> "town")
    world.places.filter(_.level >= 2).map { p =>
      (s"B${p.id.replace("place:", "").replace(":", "-")}",
       p.label, levelName(p.level),
       Option(byId(p.parent)).filter(_.level >= 2).map(q => s"B${q.id.replace("place:", "").replace(":", "-")}").orNull)
    }.toDF("code", "name", "levelName", "parentCode")
  }

  /** External brand registry: (regNo, name, topGroup, logoUrl, aliases). */
  def externalBrands(spark: SparkSession, world: World): DataFrame = {
    import spark.implicits._
    world.brands.map { b =>
      (s"reg-${b.id.replace("brand:", "")}", b.label, b.topGroup, b.logoUrl, b.aliases)
    }.toDF("regNo", "name", "topGroup", "logoUrl", "aliases")
  }
}
