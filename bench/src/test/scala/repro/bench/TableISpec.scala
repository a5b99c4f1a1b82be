package repro.bench

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{KgStats, Schema}
import repro.exp.Tables

/** Table I — statistics of the constructed KG at bench scale. */
class TableISpec extends SparkSpec {
  import BenchFixtures._

  test("Table I: construct the KG and report statistics vs the paper") {
    record("tableI", Tables.tableI(spark, kg))
  }

  test("Table I shape: taxonomy structure mirrors the paper's") {
    val overall = KgStats.overall(spark, kg).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    // Concepts outnumber classes in OpenBG? No — classes (incl. Brand
    // 411k) dominate concepts (670k concepts vs 460k classes: concepts
    // larger). Ours: assert both populations are substantial.
    assert(overall("# core classes") > 1000L)
    assert(overall("# core concepts") > 300L)
    // A rich relation inventory (dominated by attr data properties +
    // the inMarket* family), as in the paper's 2,681 types.
    assert(overall("# relation types") > 100L)
    assert(overall("# triples") > 300000L)
    assert(overall("# entities") > overall("# products (instances of categories)"))
  }

  test("Table I shape: inMarket* dominates object-property volume (paper: 1.65B of 2.6B)") {
    val obj = kg.triples.filter(col("kind") === Schema.KindObject)
    val inMarket = obj.filter(col("p").startsWith("inMarket:")).count()
    val brandIs = obj.filter(col("p") === Schema.BrandIs).count()
    assert(inMarket > brandIs, s"inMarket=$inMarket brandIs=$brandIs")
  }

  test("Table I shape: rdf:type is the largest meta-property (paper: 88.9M)") {
    val meta = kg.triples.filter(col("kind") === Schema.KindMeta)
    val counts = meta.groupBy("p").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(counts(Schema.RdfType) === counts.values.max)
  }
}
