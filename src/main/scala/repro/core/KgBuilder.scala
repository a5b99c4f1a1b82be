package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.synth.{BusinessSynth, World}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** All raw inputs of the construction pipeline (paper Section II).
  *
  * @param categoryTaxonomy expert-defined top-down Category taxonomy
  *                         (id, label, level, parent) — the paper builds
  *                         this with 30 person/day review; here it is a
  *                         given input, like theirs after review
  * @param rawProducts      noisy platform product rows
  * @param placesA          Wikidata-like external place KG
  * @param placesB          OpenKG-like external place KG
  * @param brandRegistry    brand declaration registry
  * @param corpus           titles + reviews text corpus
  * @param conceptLexicon   (conceptId, label, ctype, level, parent) —
  *                         the annotation resource standing in for the
  *                         trained BERT-CRF's knowledge of concept surface
  *                         forms and their five top-level types
  */
final case class RawSources(
    categoryTaxonomy: DataFrame,
    rawProducts: DataFrame,
    placesA: DataFrame,
    placesB: DataFrame,
    brandRegistry: DataFrame,
    corpus: DataFrame,
    conceptLexicon: DataFrame)

object RawSources {
  /** Materialize every raw source from the synthetic world. */
  def fromWorld(spark: SparkSession, world: World): RawSources = {
    import spark.implicits._
    val catTax = world.categories.map(n => (n.id, n.label, n.level, n.parent))
      .toDF("id", "label", "level", "parent")
    val lexicon = world.allConcepts.map { n =>
      val ctype = n.id.split(":").head
      (n.id, n.label, ctype, n.level, n.parent)
    }.toDF("conceptId", "label", "ctype", "level", "parent")
    RawSources(
      categoryTaxonomy = catTax,
      rawProducts = BusinessSynth.rawProducts(spark, world).toDF(),
      placesA = BusinessSynth.externalPlacesA(spark, world),
      placesB = BusinessSynth.externalPlacesB(spark, world),
      brandRegistry = BusinessSynth.externalBrands(spark, world),
      corpus = BusinessSynth.corpus(spark, world).toDF(),
      conceptLexicon = lexicon)
  }
}

/** The constructed knowledge graph.
  *
  * @param nodes   (id, label, ntype, level)
  * @param triples (s, p, o, kind) — kind ∈ {object, data, meta}
  * @param images  (pid, vec) side table of image feature vectors (the
  *                multimodal payload referenced by `imageIs` triples)
  * @param facets  concept quality-control facet table
  */
final case class Kg(nodes: DataFrame, triples: DataFrame, images: DataFrame, facets: DataFrame) {
  def cache(): Kg = { nodes.cache(); triples.cache(); images.cache(); facets.cache(); this }
}

/** End-to-end OpenBG construction (paper Section II): ontology
  * formalization, Place/Brand schema mapping, trie+fuzzy entity linking,
  * bottom-up concept extraction with quality control, and multimodal
  * triple assembly. Every stage returns a DataFrame; what grows with the
  * products runs in Spark, while the dimension tables (taxonomy, place
  * and brand catalogs, concept lexicon, per-leaf QC statistics) are
  * computed on the driver and re-enter the plans as local tables.
  */
object KgBuilder {
  import Schema._

  /** (leafId, l2Id): level-2 ancestor of each taxonomy node at level ≥ 2
    * (nodes at level ≤ 2 map to themselves).
    *
    * A bounded walk of three parent links, run on the driver over the
    * collected taxonomy (about a thousand rows), with the semantics of the
    * parent join it replaces: a node above level 2 steps to its parent's
    * id and one level down, whether or not that parent exists; a missing
    * or null parent makes the ancestor null; a chain deeper than level 5
    * stops at level 3; an id that occurs twice yields one row per match.
    */
  def leafAncestors(categoryTaxonomy: DataFrame): DataFrame = {
    val spark = categoryTaxonomy.sparkSession
    import spark.implicits._
    val rows = categoryTaxonomy.select(col("id"), col("parent"), col("level")).collect().toSeq
    val parentsOf: Map[String, Seq[String]] =
      rows.filter(!_.isNullAt(0)).groupMap(_.getString(0))(_.getString(1))
    def walk(cursor: String, level: Option[Int], hops: Int): Seq[String] =
      if (hops == 0) Seq(cursor)
      else Option(cursor).flatMap(parentsOf.get).getOrElse(Seq(null)).flatMap { parent =>
        if (level.exists(_ > 2)) walk(parent, level.map(_ - 1), hops - 1)
        else walk(cursor, level, hops - 1)
      }
    rows.flatMap { r =>
      val id = r.getString(0)
      walk(id, Option(r.getAs[Integer](2)).map(_.intValue), 3).map(l2 => (id, l2))
    }.toDF("leafId", "l2Id")
  }

  def build(spark: SparkSession, src: RawSources,
            qcThresholds: QualityControl.Thresholds = QualityControl.Thresholds()): Kg = {
    // Intermediates read more than once are cached for the build and
    // released once the outputs are materialised. The raw products are
    // not: caching them did not change the benchmark's construct time.
    val cached = mutable.ArrayBuffer.empty[DataFrame]
    def cache(df: DataFrame): DataFrame = { cached += df.cache(); df }

    // ---- 1. Schema mapping: canonical Place and Brand catalogs.
    val placeCatalog = SchemaMapping.unifyPlaces(spark, src.placesA, src.placesB)
    val brandCatalog = SchemaMapping.unifyBrands(spark, src.brandRegistry)

    // ---- 2. Entity linking: products → Brand / Place.
    val brandLinks = LabelMatcher.linkBrands(spark, src.rawProducts, brandCatalog)
    val placeLinks = LabelMatcher.linkPlaces(spark, src.rawProducts, placeCatalog)

    // ---- 3. Bottom-up concepts: extraction + market metadata linking.
    val leafLexicon = src.conceptLexicon.filter(col("level") === 2)
    val mentions = cache(ConceptExtractor.extract(spark, src.corpus, leafLexicon))
    val marketLinks = cache(ConceptExtractor.linkMarkets(spark, src.rawProducts, leafLexicon))

    val productTypes = src.rawProducts.select(col("pid") as "productId", col("leafId"))
    val ancestors = leafAncestors(src.categoryTaxonomy)
    val facetTable = QualityControl.facets(spark, mentions, productTypes, ancestors, qcThresholds)
    val conceptLinks = cache(QualityControl.filterLinks(mentions, productTypes, facetTable))

    // Discovered concepts (post-filter) + market concepts + their roots:
    // the lexicon rows whose id is used or is the parent of a used row.
    val lexicon = src.conceptLexicon.collect().toSeq
    def conceptId(r: Row): String = r.getAs[String]("conceptId")
    val usedIds = conceptLinks.select(col("conceptId")).union(marketLinks.select(col("conceptId")))
      .distinct().collect().flatMap(r => Option(r.getString(0))).toSet
    val usedLeaves = lexicon.filter(r => usedIds(conceptId(r)))
    val keptIds = usedIds ++ usedLeaves.flatMap(r => Option(r.getAs[String]("parent")))
    val discoveredLexicon = spark.createDataFrame(
      lexicon.filter(r => keptIds(conceptId(r))).distinct.asJava, src.conceptLexicon.schema)

    // ---- 4. Node table.
    val attrValues = cache(src.rawProducts
      .select(explode(col("attrs")) as Seq("attrName", "value")).distinct())
    val valueNodes = attrValues
      .select(concat(lit("val:"), col("attrName"), lit(":"), col("value")) as "id",
        col("value") as "label", lit(NtValue) as "ntype", lit(0) as "level")
    val attrClassNodes = attrValues.select(col("attrName")).distinct()
      .select(concat(lit("attrcls:"), col("attrName")) as "id",
        col("attrName") as "label", lit("AttrClass") as "ntype", lit(1) as "level")
    val productNodes = src.rawProducts.select(col("pid") as "id", col("title") as "label",
      lit(NtProduct) as "ntype", lit(0) as "level")

    val nodes = Ontology.categoryNodes(src.categoryTaxonomy)
      .unionByName(Ontology.brandNodes(brandCatalog))
      .unionByName(Ontology.placeNodes(placeCatalog))
      .unionByName(Ontology.conceptNodes(discoveredLexicon))
      .unionByName(productNodes)
      .unionByName(valueNodes)
      .unionByName(attrClassNodes)
      .localCheckpoint()

    // ---- 5. Triples. The final `distinct` removes every duplicate, so no
    // branch deduplicates on its own.
    // Every product-side triple from one pass over the raw products: type
    // (meta), label, English label, comment, image and attributes (data).
    def po(p: Column, o: Column, kind: String): Column =
      struct(p as "p", o as "o", lit(kind) as "kind")
    val attrEntries = map_entries(coalesce(col("attrs"), typedLit(Map.empty[String, String])))
    val productTriples = src.rawProducts
      .select(col("pid") as "s", explode(concat(
        array(
          po(lit(RdfType), col("leafId"), KindMeta),
          po(lit(RdfsLabel), col("title"), KindData),
          po(lit(LabelEn), concat(lit("en "), col("title")), KindData),
          po(lit(RdfsComment), col("description"), KindData),
          when(col("hasImage"), po(lit(ImageIs), concat(lit("img:"), col("pid")), KindData))),
        transform(attrEntries, e => po(concat(lit("attr:"), e("key")),
          concat(lit("val:"), e("key"), lit(":"), e("value")), KindData))
      )) as "t")
      .filter(col("t").isNotNull)
      .select(col("s"), col("t.p"), col("t.o"), col("t.kind"))

    // Meta.
    val valueTypeTriples = attrValues
      .select(concat(lit("val:"), col("attrName"), lit(":"), col("value")) as "s",
        lit(RdfType) as "p", concat(lit("attrcls:"), col("attrName")) as "o",
        lit(KindMeta) as "kind")
    val metaTriples = Ontology.categoryMeta(src.categoryTaxonomy)
      .unionByName(Ontology.brandMeta(brandCatalog))
      .unionByName(Ontology.placeMeta(placeCatalog))
      .unionByName(Ontology.conceptMeta(discoveredLexicon))
      .unionByName(Ontology.equivalentClassLinks(nodes))
      .unionByName(Ontology.propertyLinks(attrValues.select(col("attrName"))))
      .unionByName(valueTypeTriples)

    // Object properties.
    val brandTriples = brandLinks.select(col("pid") as "s", lit(BrandIs) as "p",
      col("brandId") as "o", lit(KindObject) as "kind")
    val placeTriples = placeLinks.select(col("pid") as "s", lit(PlaceOfOrigin) as "p",
      col("placeId") as "o", lit(KindObject) as "kind")
    val conceptRelExpr = ConceptRelOf.foldLeft(lit(null).cast("string")) {
      case (acc, (k, v)) => when(col("ctype") === k, lit(v)).otherwise(acc)
    }
    val conceptTriples = conceptLinks.filter(col("ctype") =!= "market")
      .select(col("productId") as "s", conceptRelExpr as "p", col("conceptId") as "o",
        lit(KindObject) as "kind")
    // Each market link once per lexicon row of its concept, as an inner join.
    val parentsOf = lexicon.filter(conceptId(_) != null)
      .groupMap(conceptId)(_.getAs[String]("parent"))
    val marketTriples = marketLinks
      .select(col("productId") as "s", col("conceptId") as "o",
        explode(try_element_at(typedLit(parentsOf), col("conceptId"))) as "parent")
      .select(col("s"), concat(lit("inMarket:"), col("parent")) as "p", col("o"),
        lit(KindObject) as "kind")

    // Data properties.
    val brandLabelEnTriples = brandCatalog.select(col("id") as "s", lit(LabelEn) as "p",
      concat(lit("en "), col("label")) as "o", lit(KindData) as "kind")
    val prefLabelTriples = discoveredLexicon.select(col("conceptId") as "s",
      lit(PrefLabel) as "p", col("label") as "o", lit(KindData) as "kind")
    val altLabelTriples = discoveredLexicon.select(col("conceptId") as "s",
      lit(AltLabel) as "p", concat(col("label"), lit(" alt")) as "o", lit(KindData) as "kind")

    val triples = metaTriples
      .unionByName(brandTriples).unionByName(placeTriples)
      .unionByName(conceptTriples).unionByName(marketTriples)
      .unionByName(productTriples).unionByName(brandLabelEnTriples)
      .unionByName(prefLabelTriples).unionByName(altLabelTriples)
      .distinct()

    val images = src.rawProducts.filter(col("hasImage"))
      .select(col("pid"), col("imageVec") as "vec")

    // Materialize and truncate lineage (eager local checkpoints), so that
    // consumers such as the benchmark builder and Table I plan over four
    // small tables instead of the construction plan; then release the
    // build's caches, which the checkpoints no longer need.
    val kg = Kg(nodes, triples.localCheckpoint(), images.localCheckpoint(),
      facetTable.localCheckpoint())
    cached.foreach(_.unpersist())
    kg
  }
}
