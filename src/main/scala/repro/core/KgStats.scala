package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Statistics of the constructed KG — the reproduction of Table I.
  *
  * Three views, all plain aggregations over the node/triple tables:
  *  - `overall`: one (metric, value) row per headline number
  *  - `perTypeLevel`: class/concept counts per taxonomy level + leaf counts
  *  - `perRelation`: triple counts per relation (grouped by kind)
  */
object KgStats {
  import Schema._

  /** Per-type, per-level node counts with per-type all/leaf totals.
    * A node is a leaf iff nothing links *to* it via the taxonomy
    * meta-properties (rdfs:subClassOf / skos:broader).
    */
  def perTypeLevel(kg: Kg): DataFrame = {
    val taxTypes = ClassTypes ++ ConceptTypes
    val tax = kg.nodes.filter(col("ntype").isin(taxTypes: _*))
    val parentsOfTax = kg.triples
      .filter(col("p").isin(SubClassOf, Broader))
      .select(col("o") as "id").distinct()
    val withLeaf = tax.join(parentsOfTax.withColumn("isParent", lit(true)), Seq("id"), "left")
      .withColumn("isLeaf", col("isParent").isNull)
    withLeaf.groupBy("ntype", "level")
      .agg(count(lit(1)) as "n", sum(when(col("isLeaf"), 1).otherwise(0)) as "nLeaf")
      .orderBy("ntype", "level")
  }

  /** Triple counts per relation, with the relation kind. */
  def perRelation(kg: Kg): DataFrame =
    kg.triples.groupBy("p", "kind").agg(count(lit(1)) as "n")
      .orderBy(desc("n"), col("p"), col("kind"))

  /** Headline numbers mirroring the top block of Table I. */
  def overall(spark: SparkSession, kg: Kg): DataFrame = {
    import spark.implicits._
    val nClasses = kg.nodes.filter(col("ntype").isin(ClassTypes: _*)).count()
    val nConcepts = kg.nodes.filter(col("ntype").isin(ConceptTypes: _*)).count()
    val nRelTypes = kg.triples.select("p").distinct().count()
    val nProducts = kg.nodes.filter(col("ntype") === NtProduct).count()
    val nEntities = kg.nodes.count()
    val nTriples = kg.triples.count()
    Seq(
      ("# core classes", nClasses),
      ("# core concepts", nConcepts),
      ("# relation types", nRelTypes),
      ("# products (instances of categories)", nProducts),
      ("# entities", nEntities),
      ("# triples", nTriples),
    ).toDF("metric", "value")
  }
}
