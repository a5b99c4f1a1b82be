package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

/** Concept quality control along the paper's four commonsense facets
  * (II-C.2): plausibility, typicality, remarkability, salience —
  * computed from corpus statistics with DataFrame aggregations.
  *
  * Definitions (for a leaf category c and concept p):
  *  - typicality(c,p)   = |products of c linked to p| / |products of c|
  *  - remarkability(c,p)= typicality(c,p) − mean over sibling leaves c'
  *                        (same level-2 ancestor, c' ≠ c) of typicality(c',p)
  *  - plausible(c,p)    = support ≥ minSupport ∧ typicality ≥ tauPlausible
  *  - typical(c,p)      = typicality ≥ tauTypical
  *  - remarkable(c,p)   = remarkability ≥ tauRemarkable
  *  - salient(c,p)      = typical ∧ remarkable  (paper: "a statement both
  *                        satisfying Typicality and Remarkability implies
  *                        Salience")
  */
object QualityControl {

  final case class Thresholds(
      minSupport: Long = 2L,
      tauPlausible: Double = 0.05,
      tauTypical: Double = 0.12,
      tauRemarkable: Double = 0.06)

  /** Facet table over candidate concept links.
    *
    * The per-(leaf, concept) link counts and the per-leaf product counts
    * are Spark aggregations over the links; the facets themselves are
    * computed on the driver from those small tables (one row per leaf
    * and concept), with SQL join semantics: a row whose leaf has no
    * ancestor, or whose ancestor, type or concept is null, drops out. A
    * sibling group's typicality mass is summed in leaf-id order, so the
    * table does not depend on the shuffle layout.
    *
    * @param conceptLinks (productId, ctype, conceptId, support)
    * @param productTypes (productId, leafId) — rdf:type annotations
    * @param leafAncestors (leafId, l2Id) — level-2 ancestor of each leaf
    * @return (leafId, ctype, conceptId, support, typicality, remarkability,
    *          plausible, typical, remarkable, salient)
    */
  def facets(
      spark: SparkSession,
      conceptLinks: DataFrame,
      productTypes: DataFrame,
      leafAncestors: DataFrame,
      th: Thresholds = Thresholds()): DataFrame = {

    val nLeafProducts: Map[String, Long] = productTypes.groupBy("leafId")
      .agg(countDistinct(col("productId"))).collect()
      .collect { case r if !r.isNullAt(0) => r.getString(0) -> r.getLong(1) }.toMap
    val perLeaf = conceptLinks.join(productTypes, Seq("productId"))
      .groupBy("leafId", "ctype", "conceptId")
      .agg(countDistinct(col("productId")), sum(col("support")))
      .collect().toSeq
    val ancestors = leafAncestors.select("leafId", "l2Id").collect().toSeq
    // Sibling group sizes: leaves with zero links count too, so the mean
    // below divides by the number of leaves under the ancestor.
    val nSiblings: Map[String, Long] = ancestors.groupMapReduce(_.getString(1))(_ => 1L)(_ + _)
    val l2Of: Map[String, Seq[String]] = ancestors.filter(!_.isNullAt(0))
      .groupMap(_.getString(0))(_.getString(1))

    final case class Stat(leafId: String, ctype: String, conceptId: String, l2Id: String,
                          support: java.lang.Long, typicality: Double)
    val stats = for {
      r <- perLeaf
      leafId = r.getString(0)
      if leafId != null && !r.isNullAt(1) && !r.isNullAt(2)
      n <- nLeafProducts.get(leafId).toSeq
      l2Id <- l2Of.getOrElse(leafId, Nil)
      if l2Id != null && nSiblings.contains(l2Id)
    } yield Stat(leafId, r.getString(1), r.getString(2), l2Id, r.getAs[java.lang.Long](4),
      r.getLong(3).toDouble / n.toDouble)

    // Sibling group statistics: the typicality mass of (concept) across all
    // leaves of the same L2 ancestor.
    val typMass: Map[(String, String, String), Double] =
      stats.groupBy(s => (s.l2Id, s.ctype, s.conceptId)).view
        .mapValues(_.sortBy(_.leafId)(SchemaMapping.sparkStringOrder).map(_.typicality)
          .reduce(_ + _)).toMap

    val rows = stats.map { s =>
      val nSib = nSiblings(s.l2Id)
      val mass = typMass((s.l2Id, s.ctype, s.conceptId))
      val remarkability =
        if (nSib > 1) s.typicality - (mass - s.typicality) / (nSib - 1).toDouble
        else s.typicality
      val typical = s.typicality >= th.tauTypical
      val remarkable = remarkability >= th.tauRemarkable
      Row(s.leafId, s.ctype, s.conceptId, s.support, s.typicality, remarkability,
        s.support != null && s.support >= th.minSupport && s.typicality >= th.tauPlausible,
        typical, remarkable, typical && remarkable)
    }
    spark.createDataFrame(rows.asJava, StructType(
      Seq("leafId", "ctype", "conceptId").map(StructField(_, StringType)) ++ Seq(
        StructField("support", LongType), StructField("typicality", DoubleType),
        StructField("remarkability", DoubleType)) ++
      Seq("plausible", "typical", "remarkable", "salient").map(StructField(_, BooleanType))))
  }

  /** Drop product→concept links whose (leaf, concept) pair is implausible
    * — this is where spurious corpus mentions get cleaned out.
    */
  def filterLinks(
      conceptLinks: DataFrame,
      productTypes: DataFrame,
      facetTable: DataFrame): DataFrame = {
    val plausible = facetTable.filter(col("plausible"))
      .select("leafId", "ctype", "conceptId")
    conceptLinks
      .join(productTypes, Seq("productId"))
      .join(plausible, Seq("leafId", "ctype", "conceptId"))
      .select("productId", "ctype", "conceptId")
  }
}
