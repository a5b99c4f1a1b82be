package repro.tasks

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{Kg, Schema}
import repro.synth.{BusinessSynth, Vocab, World}

/** Labeled examples of the five downstream tasks, derived from the
  * synthetic world (standing in for the paper's crowd-sourced / expert
  * annotation) and KG-derived features extracted from the *constructed*
  * KG — so every "+KG" gain in Tables V–VII flows through the pipeline
  * output, not through generator ground truth.
  */
object TaskData {

  // ------------------------------------------------------- category prediction

  /** One category-prediction item.
    * @param title item title with the category tokens coarsened to the
    *              level-2 ancestor label (fine-grained class terms do not
    *              appear verbatim in real item titles; confusion is among
    *              sibling leaves, as in the paper's 13k-leaf setting)
    * @param kgTokens KG-derived tokens of the product: attribute values,
    *              brand label, concept labels — never the category
    *              (that would leak the label)
    */
  final case class CatExample(itemId: String, title: Seq[String], kgTokens: Seq[String],
                              label: String)

  /** KG feature tokens per product: labels of attr-value / brand /
    * concept neighbours in the constructed KG.
    */
  def kgTokensByProduct(spark: SparkSession, kg: Kg): Map[String, Seq[String]] = {
    import spark.implicits._
    val rels = Seq(Schema.BrandIs, Schema.RelatedScene, Schema.ForCrowd,
      Schema.AboutTheme, Schema.AppliedTime)
    val t = kg.triples.filter(col("s").startsWith("prod:") &&
      (col("p").isin(rels: _*) || col("p").startsWith("attr:") ||
        col("p").startsWith("inMarket:")))
    val labels = kg.nodes.select(col("id") as "o", col("label") as "olabel")
    t.join(labels, Seq("o"))
      .select(col("s"), col("olabel")).as[(String, String)]
      .collect().groupBy(_._1).map { case (s, xs) => s -> xs.map(_._2).sorted.toSeq }
  }

  def categoryExamples(spark: SparkSession, world: World, kg: Kg): Seq[CatExample] = {
    val kgTok = kgTokensByProduct(spark, kg)
    val products = BusinessSynth.productRecords(world)
    val l2Label: Map[String, String] = {
      val anc = world.categoryLeaves.map { leaf =>
        var n = leaf
        while (n.level > 2) n = world.categoryById(n.parent)
        leaf.id -> world.categoryById(n.id).label
      }
      anc.toMap
    }
    products.map { p =>
      val catTokens = world.categoryById(p.leafId).label.split(" ").toSet
      val coarse = l2Label(p.leafId).split(" ").toSeq
      val r = new java.util.Random(Vocab.mix(world.cfg.seed * 91L + p.idx))
      val title = p.titleTokens.flatMap { tok =>
        if (catTokens.contains(tok)) None            // strip fine-grained term
        else if (r.nextDouble() < 0.3) None          // item-title noise
        else Some(tok)
      } ++ coarse
      CatExample(p.id, title, kgTok.getOrElse(p.id, Nil), p.leafId)
    }
  }

  /** Deterministic 80/20 split by item hash. */
  def split80[A](xs: Seq[A], id: A => String): (Seq[A], Seq[A]) =
    xs.partition(x => math.floorMod(Vocab.mix(id(x).hashCode.toLong), 5) != 0)

  /** k-shot subsample: first k train examples per label (hash order). */
  def kShot(xs: Seq[CatExample], k: Int): Seq[CatExample] =
    xs.groupBy(_.label).values.flatMap { g =>
      g.sortBy(e => Vocab.mix(e.itemId.hashCode.toLong)).take(k)
    }.toSeq

  // ------------------------------------------------------------------ NER

  final case class NerExample(itemId: String, tokens: Seq[String], tags: Seq[String])

  def nerExamples(spark: SparkSession, world: World, maxN: Int = 2000): Seq[NerExample] = {
    BusinessSynth.productRecords(world)
      .sortBy(p => Vocab.mix(p.idx * 7L + 5L)).take(maxN)
      .map(p => NerExample(p.id, p.titleTokens, p.titleTags))
  }

  /** Gazetteer from the constructed KG: token → entity-type tags. */
  def kgGazetteer(spark: SparkSession, kg: Kg): Map[String, Seq[String]] = {
    import spark.implicits._
    val brandWords = kg.nodes.filter(col("ntype") === Schema.NtBrand && col("level") === 2)
      .select("label").as[String].collect().flatMap(_.split(" ")).map(_ -> "Brand")
    val catWords = kg.nodes.filter(col("ntype") === Schema.NtCategory)
      .select("label").as[String].collect().flatMap(_.split(" ")).map(_ -> "Category")
    // value entities are typed by their attr class: val:<attr>:<value>
    val valueWords = kg.nodes.filter(col("ntype") === Schema.NtValue)
      .select("id").as[String].collect().flatMap { id =>
        val parts = id.split(":", 3)
        if (parts.length == 3) Some(parts(2) -> parts(1)) else None
      }
    (brandWords ++ catWords ++ valueWords).toSeq
      .groupBy(_._1).map { case (w, xs) => w -> xs.map(_._2).distinct.sorted }
  }

  /** k-shot per entity type: keep examples covering each type ≤ k times. */
  def nerKShot(xs: Seq[NerExample], k: Int): Seq[NerExample] = {
    val seen = scala.collection.mutable.Map[String, Int]().withDefaultValue(0)
    val out = scala.collection.mutable.ArrayBuffer[NerExample]()
    xs.sortBy(e => Vocab.mix(e.itemId.hashCode.toLong)).foreach { e =>
      val types = e.tags.filter(_.startsWith("B-")).map(_.drop(2)).distinct
      if (types.exists(t => seen(t) < k)) {
        out += e
        types.foreach(t => seen(t) += 1)
      }
    }
    out.toSeq
  }

  // ------------------------------------------------------- title summarization

  final case class SummExample(itemId: String, tokens: Seq[String], keep: Seq[Boolean],
                               gold: Seq[String])

  def summarizationExamples(spark: SparkSession, world: World): Seq[SummExample] = {
    BusinessSynth.productRecords(world).map { p =>
      val want = scala.collection.mutable.Map[String, Int]().withDefaultValue(0)
      p.shortTitle.foreach(t => want(t) += 1)
      val keep = p.titleTokens.map { t =>
        if (want(t) > 0) { want(t) -= 1; true } else false
      }
      SummExample(p.id, p.titleTokens, keep, p.shortTitle)
    }
  }

  // ----------------------------------------------------------- IE for reviews

  final case class IeExample(reviewId: String, text: String,
                             gold: Set[(String, String, String)])

  def ieExamples(spark: SparkSession, world: World, maxN: Int = 4000): Seq[IeExample] = {
    BusinessSynth.reviewRecords(world)
      .sortBy(r => Vocab.mix(r.reviewId.hashCode.toLong)).take(maxN)
      .map(r => IeExample(r.reviewId, r.text, r.goldTriples.toSet))
  }

  /** Attribute-name lexicon from the constructed KG (attr data properties). */
  def kgAttrLexicon(spark: SparkSession, kg: Kg): Set[String] = {
    import spark.implicits._
    kg.triples.filter(col("p").startsWith("attr:"))
      .select("p").distinct().as[String].collect()
      .map(_.stripPrefix("attr:")).toSet
  }

  // ------------------------------------------------------- salience evaluation

  /** One salience statement ⟨leaf, relation(ctype), concept⟩ with its
    * generative gold label and KG-derived statistics (typicality,
    * remarkability, log-support from the QC facet table — 0 when the KG
    * has no evidence).
    */
  final case class SalienceExample(leafId: String, leafLabel: String, ctype: String,
                                   conceptLabel: String, stats: Array[Double],
                                   salient: Boolean)

  def salienceExamples(spark: SparkSession, world: World, kg: Kg): Seq[SalienceExample] = {
    val facetRows = kg.facets.select("leafId", "ctype", "conceptId",
      "typicality", "remarkability", "support").collect()
      .map(r => (r.getString(0), r.getString(1), r.getString(2)) ->
        Array(r.getDouble(3), r.getDouble(4), math.log1p(r.getLong(5).toDouble)))
      .toMap
    val conceptLbl = world.allConcepts.map(n => n.id -> n.label).toMap
    val out = scala.collection.mutable.ArrayBuffer[SalienceExample]()
    world.leafProfiles.foreach { prof =>
      val leafLbl = world.categoryById(prof.leafId).label
      val rnd = new java.util.Random(Vocab.mix(world.cfg.seed + 131L * prof.leafIdx))
      def ex(ctype: String, cid: String, label: Boolean): SalienceExample =
        SalienceExample(prof.leafId, leafLbl, ctype, conceptLbl(cid),
          facetRows.getOrElse((prof.leafId, ctype, cid), Array(0.0, 0.0, 0.0)), label)
      // positives: leaf-own concepts (typical AND remarkable by construction)
      prof.sceneOwn.filterNot(prof.sceneShared.contains)
        .foreach(c => out += ex("scene", c, label = true))
      prof.crowdOwn.filterNot(prof.crowdShared.contains)
        .foreach(c => out += ex("crowd", c, label = true))
      // negatives: sibling-shared concepts (typical, NOT remarkable)
      prof.sceneShared.filterNot(prof.sceneOwn.contains)
        .foreach(c => out += ex("scene", c, label = false))
      prof.crowdShared.filterNot(prof.crowdOwn.contains)
        .foreach(c => out += ex("crowd", c, label = false))
      // negatives: random unrelated concepts (not even typical)
      val scenes = world.conceptLeaves("scene")
      (0 until 2).foreach { _ =>
        val c = scenes(rnd.nextInt(scenes.size)).id
        if (!prof.sceneOwn.contains(c) && !prof.sceneShared.contains(c))
          out += ex("scene", c, label = false)
      }
    }
    out.toSeq
  }
}
