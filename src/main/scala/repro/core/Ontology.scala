package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Ontology formalization (paper II-A): node tables and meta-property
  * triples for the class side (Category / Brand / Place) and the concept
  * side (Scene / Crowd / Theme / Time / Market Segment).
  *
  * The paper formalizes the ontology with Apache Jena's ontology/RDF
  * APIs; here the ontology is relational — a `nodes` table
  * (id, label, ntype, level) and meta triples (s, p, o, kind) built with
  * DataFrame transformations, which is the Spark-native equivalent.
  */
object Ontology {
  import Schema._

  /** Category class nodes from the expert-defined taxonomy
    * (id, label, level, parent).
    */
  def categoryNodes(categoryTaxonomy: DataFrame): DataFrame =
    categoryTaxonomy.select(col("id"), col("label"), lit(NtCategory) as "ntype", col("level"))

  /** rdfs:subClassOf edges of the Category taxonomy; roots attach to owl:Thing. */
  def categoryMeta(categoryTaxonomy: DataFrame): DataFrame =
    categoryTaxonomy.select(col("id") as "s", lit(SubClassOf) as "p",
      when(col("parent") === "" || col("parent").isNull, lit(OwlThing))
        .otherwise(col("parent")) as "o",
      lit(KindMeta) as "kind")

  /** Brand class nodes: level-1 top groups + level-2 brands. */
  def brandNodes(brandCatalog: DataFrame): DataFrame = {
    val tops = brandCatalog.select(col("topGroup")).distinct()
      .select(concat(lit("brandtop:"), col("topGroup")) as "id",
        concat(lit("brand group "), col("topGroup")) as "label",
        lit(NtBrand) as "ntype", lit(1) as "level")
    val brands = brandCatalog.select(col("id"), col("label"),
      lit(NtBrand) as "ntype", lit(2) as "level")
    tops.unionByName(brands)
  }

  /** Brand taxonomy meta triples (brand → its top group → owl:Thing). A
    * group's edge to owl:Thing repeats once per brand in it; the KG's
    * triple table is distinct.
    */
  def brandMeta(brandCatalog: DataFrame): DataFrame = {
    val b = brandCatalog.select(col("id") as "s", lit(SubClassOf) as "p",
      concat(lit("brandtop:"), col("topGroup")) as "o", lit(KindMeta) as "kind")
    val t = brandCatalog
      .select(concat(lit("brandtop:"), col("topGroup")) as "s",
        lit(SubClassOf) as "p", lit(OwlThing) as "o", lit(KindMeta) as "kind")
    b.unionByName(t)
  }

  /** Place class nodes from the unified catalog (id, label, level, parent). */
  def placeNodes(placeCatalog: DataFrame): DataFrame =
    placeCatalog.select(col("id"), col("label"), lit(NtPlace) as "ntype", col("level"))

  def placeMeta(placeCatalog: DataFrame): DataFrame =
    placeCatalog.select(col("id") as "s", lit(SubClassOf) as "p",
      when(col("parent") === "" || col("parent").isNull, lit(OwlThing))
        .otherwise(col("parent")) as "o",
      lit(KindMeta) as "kind")

  /** Concept nodes for discovered concepts (+ their roots), from the
    * lexicon rows (conceptId, label, ctype, level, parent).
    */
  def conceptNodes(discoveredLexicon: DataFrame): DataFrame = {
    val typeExpr = Schema.ConceptTypeOf.foldLeft(lit(null).cast("string")) {
      case (acc, (k, v)) => when(col("ctype") === k, lit(v)).otherwise(acc)
    }
    discoveredLexicon.select(col("conceptId") as "id", col("label"),
      typeExpr as "ntype", col("level"))
  }

  /** skos:broader edges: concept leaf → root, root → skos:Concept. */
  def conceptMeta(discoveredLexicon: DataFrame): DataFrame =
    discoveredLexicon.select(col("conceptId") as "s", lit(Broader) as "p",
      when(col("parent") === "" || col("parent").isNull, lit(SkosConcept))
        .otherwise(col("parent")) as "o",
      lit(KindMeta) as "kind")

  /** owl:equivalentClass links from a deterministic subset of classes /
    * concepts to exogenous objects (paper: links to external open KGs).
    */
  def equivalentClassLinks(nodes: DataFrame): DataFrame =
    nodes.filter(col("ntype").isin((ClassTypes ++ ConceptTypes): _*))
      .filter(abs(hash(col("id"))) % 5 === 0)
      .select(col("id") as "s", lit(EquivClass) as "p",
        concat(lit("ext:"), col("id")) as "o", lit(KindMeta) as "kind")

  /** rdfs:subPropertyOf / owl:equivalentPropertyOf links of attribute data
    * properties into cnSchema (paper: data properties derive from the
    * general domain).
    */
  def propertyLinks(attrNames: DataFrame): DataFrame = {
    // attrNames: single column "attrName"
    val sub = attrNames.select(
      concat(lit("attr:"), col("attrName")) as "s", lit(SubPropOf) as "p",
      concat(lit("cnschema:"), col("attrName")) as "o", lit(KindMeta) as "kind")
    val eq = attrNames.filter(abs(hash(col("attrName"))) % 3 === 0).select(
      concat(lit("attr:"), col("attrName")) as "s", lit(EquivPropOf) as "p",
      concat(lit("cnschema:"), col("attrName")) as "o", lit(KindMeta) as "kind")
    sub.unionByName(eq)
  }
}
