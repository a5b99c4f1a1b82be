package repro.benchmark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Kg, Schema}

/** Parameters of one OpenBG benchmark extraction (paper III-A).
  *
  * @param nRelations   size of the refined relation set R^N
  * @param headRelFraction fraction of R^N (by frequency rank) treated as
  *                     head-relations in the entity-filtering stage
  * @param alphaHead    sampling rate α_h for head-relation entities
  * @param alphaTail    sampling rate α_l for tail-relation entities
  *                     (paper: α_h > α_l)
  * @param alphaTriples triple sampling rate α^N of the tail-sampling stage
  * @param nDev, nTest  requested split sizes (actual may be slightly lower
  *                     after entity-coverage filtering)
  * @param requireImage restrict head entities to multimodal products
  *                     (OpenBG-IMG)
  */
final case class BenchConfig(
    name: String,
    nRelations: Int,
    headRelFraction: Double = 0.3,
    alphaHead: Double = 1.0,
    alphaTail: Double = 0.5,
    alphaTriples: Double = 1.0,
    nDev: Int = 500,
    nTest: Int = 1000,
    requireImage: Boolean = false,
    seed: Long = 7L) {
  require(alphaHead >= alphaTail, "paper constraint: alpha_h > alpha_l")
}

/** One extracted benchmark: train/dev/test triple DataFrames (h, r, t)
  * plus entity/relation vocabularies.
  */
final case class Benchmark(
    name: String,
    train: DataFrame,
    dev: DataFrame,
    test: DataFrame,
    entities: DataFrame,   // (entity)
    relations: DataFrame,  // (relation)
    multimodalEntities: DataFrame) { // (entity) subset with image payloads

  def cache(): Benchmark = {
    train.cache(); dev.cache(); test.cache(); entities.cache(); relations.cache()
    multimodalEntities.cache(); this
  }

  /** One Table-II row: (name, #Ent, #Rel, #Train, #Dev, #Test, #MM-Ent). */
  def stats: (String, Long, Long, Long, Long, Long, Long) =
    (name, entities.count(), relations.count(), train.count(), dev.count(),
      test.count(), multimodalEntities.count())
}

/** Three-stage benchmark extraction from the full KG (paper III-A):
  * relation refinement → head-entity filtering (Eq. 1) → tail-entity
  * sampling (Eq. 2), then a leakage-free train/dev/test split.
  * Everything is hash-deterministic in the config seed.
  */
object BenchmarkBuilder {

  /** Entity-tailed triples usable for link prediction: object properties,
    * attribute data properties (tails are value entities), and product
    * rdf:type (tails are leaf categories).
    */
  def benchmarkableTriples(kg: Kg): DataFrame =
    kg.triples.filter(
      col("kind") === Schema.KindObject ||
        col("p").startsWith("attr:") ||
        (col("p") === Schema.RdfType && col("s").startsWith("prod:")))
      .select(col("s") as "h", col("p") as "r", col("o") as "t")

  /** Deterministic Bernoulli(rate) per key. */
  private def keep(keyCol: org.apache.spark.sql.Column, rate: Double, salt: Long) =
    pmod(xxhash64(keyCol, lit(salt)), lit(1000000L)) < (rate * 1000000L).toLong

  /** Stage 1 — relation refinement: the N highest-frequency relations
    * (the paper's manual "high-frequency, closely business-related"
    * selection; frequency is the automatable proxy).
    * @return (r, freq, relRank)
    */
  def refineRelations(triples: DataFrame, n: Int): DataFrame = {
    val w = Window.orderBy(desc("freq"), asc("r"))
    triples.groupBy("r").agg(count(lit(1)) as "freq")
      .withColumn("relRank", row_number.over(w) - 1)
      .filter(col("relRank") < n)
  }

  /** Stage 2 — head-entity filtering (Eq. 1): entities attached to
    * head-relations sample at α_h, the rest at α_l.
    * @return (h) sampled head entities
    */
  def filterHeadEntities(triples: DataFrame, rels: DataFrame, cfg: BenchConfig): DataFrame = {
    val nHeadRels = math.max(1, (cfg.nRelations * cfg.headRelFraction).toInt)
    val tagged = triples
      .join(rels.select(col("r"), col("relRank")), Seq("r"))
      .groupBy(col("h"))
      .agg(min(col("relRank")) as "bestRank")
      .withColumn("isHeadEntity", col("bestRank") < nHeadRels)
    tagged.filter(
      (col("isHeadEntity") && keep(col("h"), cfg.alphaHead, cfg.seed)) ||
        (!col("isHeadEntity") && keep(col("h"), cfg.alphaTail, cfg.seed + 1)))
      .select(col("h"))
  }

  /** Stage 3 — tail-entity sampling (Eq. 2): keep triples with refined
    * relations and sampled heads, then sample triples at α^N.
    */
  def sampleTriples(triples: DataFrame, rels: DataFrame, heads: DataFrame,
                    cfg: BenchConfig): DataFrame =
    triples
      .join(rels.select("r"), Seq("r"))
      .join(heads, Seq("h"))
      .filter(keep(concat_ws("", col("h"), col("r"), col("t")),
        cfg.alphaTriples, cfg.seed + 2))
      .select("h", "r", "t")

  /** Leakage-free split: at most one held-out triple per head, only from
    * heads with degree ≥ 3 (so every dev/test head keeps ≥ 2 training
    * triples), and only where the tail is also covered by train.
    */
  def split(spark: SparkSession, triples: DataFrame, cfg: BenchConfig):
      (DataFrame, DataFrame, DataFrame) = {
    val withU = triples.withColumn("u",
      pmod(xxhash64(concat_ws("", col("h"), col("r"), col("t")), lit(cfg.seed + 3)),
        lit(1000000007L)))
    val deg = triples.groupBy("h").agg(count(lit(1)) as "deg")
    // Ties on u are broken by the triple itself, so the held-out set does
    // not depend on the shuffle layout.
    val perHead = Window.partitionBy(col("h")).orderBy(col("u"), col("r"), col("t"))
    val cands = withU.join(deg, Seq("h"))
      .filter(col("deg") >= 3)
      .withColumn("rk", row_number.over(perHead))
      .filter(col("rk") === 1)
      .orderBy(col("u"), col("h"), col("r"), col("t"))
      .limit(cfg.nDev + cfg.nTest)
      .cache()

    val global = Window.orderBy(col("u"), col("h"))
    val ranked = cands.withColumn("grk", row_number.over(global))
    val devRaw = ranked.filter(col("grk") <= cfg.nDev).select("h", "r", "t")
    val testRaw = ranked.filter(col("grk") > cfg.nDev).select("h", "r", "t")

    val holdout = devRaw.unionByName(testRaw)
    val train = triples.join(holdout, Seq("h", "r", "t"), "left_anti").cache()

    // Coverage: every dev/test tail must appear in train (as head or tail).
    val trainEnts = train.select(col("h") as "e")
      .union(train.select(col("t") as "e")).distinct().cache()
    val dev = devRaw.join(trainEnts.withColumnRenamed("e", "t"), Seq("t"), "left_semi")
      .select("h", "r", "t")
    val test = testRaw.join(trainEnts.withColumnRenamed("e", "t"), Seq("t"), "left_semi")
      .select("h", "r", "t")
    (train, dev, test)
  }

  /** Full extraction pipeline. */
  def build(spark: SparkSession, kg: Kg, cfg: BenchConfig): Benchmark = {
    val base0 = benchmarkableTriples(kg)
    val base = if (cfg.requireImage) {
      val mm = kg.images.select(col("pid") as "h")
      // Heads restricted to multimodal products; non-product heads drop out.
      base0.join(mm, Seq("h"), "left_semi")
    } else base0

    val rels = refineRelations(base, cfg.nRelations).localCheckpoint()
    val heads = filterHeadEntities(base, rels, cfg)
    // Materialize the sampled triple set: everything downstream (split,
    // vocabularies, training) reads it repeatedly.
    val triples = sampleTriples(base, rels, heads, cfg).localCheckpoint()
    val (train0, dev0, test0) = split(spark, triples, cfg)
    val (train, dev, test) =
      (train0.localCheckpoint(), dev0.localCheckpoint(), test0.localCheckpoint())

    val entities = triples.select(col("h") as "entity")
      .union(triples.select(col("t") as "entity")).distinct()
    val relations = rels.select(col("r") as "relation")
    val mmEntities = entities.join(kg.images.select(col("pid") as "entity"),
      Seq("entity"), "left_semi")
    Benchmark(cfg.name, train, dev, test, entities, relations, mmEntities)
  }
}
