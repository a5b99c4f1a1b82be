package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.synth.BusinessSynth

class SchemaMappingSpec extends SparkSpec {
  lazy val world = TestFixtures.world

  lazy val unified = SchemaMapping.unifyPlaces(spark,
    BusinessSynth.externalPlacesA(spark, world),
    BusinessSynth.externalPlacesB(spark, world)).cache()

  test("unified places have one canonical row per world place (modulo label-path collisions)") {
    val n = unified.count()
    assert(n <= world.places.size)
    assert(n >= world.places.size * 0.97)
  }

  test("per-level counts match the world taxonomy") {
    val byLevel = unified.groupBy("level").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    val gt = world.places.groupBy(_.level).view.mapValues(_.size).toMap
    for (l <- 1 to 5)
      assert(math.abs(byLevel(l) - gt(l)) <= math.max(1, gt(l) / 50), s"level $l")
  }

  test("canonical ids are deterministic across runs") {
    val again = SchemaMapping.unifyPlaces(spark,
      BusinessSynth.externalPlacesA(spark, world),
      BusinessSynth.externalPlacesB(spark, world))
    assert(unified.orderBy("id").collect().toSeq === again.orderBy("id").collect().toSeq)
  }

  test("every non-country has a parent at the level above") {
    val joined = unified.alias("c")
      .join(unified.alias("p"), col("c.parent") === col("p.id"), "left")
      .select(col("c.id"), col("c.level") as "clevel", col("c.parent"),
        col("p.level") as "plevel")
      .collect()
    joined.foreach { r =>
      val lvl = r.getInt(1)
      if (lvl == 1) assert(r.getString(2) === "")
      else {
        assert(r.getString(2).nonEmpty, s"no parent for ${r.getString(0)}")
        assert(r.getInt(3) === lvl - 1)
      }
    }
  }

  test("labels from both sources reconcile (no duplicate canonical entity)") {
    // If the same (level, path) arrived from A and B it must appear once.
    val dup = unified.groupBy("level", "label", "parent").count()
      .filter(col("count") > 1).count()
    assert(dup === 0)
  }

  test("withLabelPath builds root-to-self paths") {
    val norm = SchemaMapping.normalizePlacesA(BusinessSynth.externalPlacesA(spark, world))
    val pathed = SchemaMapping.withLabelPath(norm)
    val row = pathed.filter(col("level") === 3).limit(1).collect()(0)
    val path = row.getAs[String]("path")
    assert(path.split("/").length === 3)
    assert(path.endsWith(row.getAs[String]("label")))
  }

  test("withLabelPath keeps the bounded parent-join semantics") {
    import spark.implicits._
    // Ids are per source (B's "a" is not A's "a"); a chain deeper than
    // maxDepth loses its root; a dangling parent ends the walk; a null
    // label nulls its own path but its children walk past it.
    val norm = Seq[(String, String, String, Int, String)](
      ("A", "r", "root", 1, null), ("A", "a", "alpha", 2, "r"), ("A", "b", "beta", 3, "a"),
      ("A", "c", "gamma", 4, "b"), ("A", "d", "delta", 5, "c"), ("A", "e", "eps", 6, "d"),
      ("A", "x", "dangle", 3, "missing"), ("A", "n", null, 2, "r"), ("A", "m", "em", 3, "n"),
      ("B", "a", "other", 2, null), ("B", "k", "kid", 3, "a"))
      .toDF("src", "srcId", "label", "level", "parentSrcId")
    def paths(maxDepth: Int) = {
      val df = SchemaMapping.withLabelPath(norm, maxDepth)
      assert(df.columns.toSeq === Seq("src", "srcId", "label", "level", "parentSrcId", "path"))
      df.select("src", "srcId", "path").collect()
        .map(r => (r.getString(0), r.getString(1), r.getString(2))).sorted.toSeq
    }
    assert(paths(5) === Seq(("A", "a", "root/alpha"), ("A", "b", "root/alpha/beta"),
      ("A", "c", "root/alpha/beta/gamma"), ("A", "d", "root/alpha/beta/gamma/delta"),
      ("A", "e", "alpha/beta/gamma/delta/eps"), ("A", "m", "root/em"), ("A", "n", null),
      ("A", "r", "root"), ("A", "x", "dangle"), ("B", "a", "other"), ("B", "k", "other/kid")))
    assert(paths(2) === Seq(("A", "a", "root/alpha"), ("A", "b", "alpha/beta"),
      ("A", "c", "beta/gamma"), ("A", "d", "gamma/delta"), ("A", "e", "delta/eps"),
      ("A", "m", "em"), ("A", "n", null), ("A", "r", "root"), ("A", "x", "dangle"),
      ("B", "a", "other"), ("B", "k", "other/kid")))
  }

  test("unifyBrands dedups by name and mints deterministic ids") {
    val reg = BusinessSynth.externalBrands(spark, world)
    val cat = SchemaMapping.unifyBrands(spark, reg).cache()
    assert(cat.count() === world.brands.size)
    assert(cat.select("id").distinct().count() === world.brands.size)
    // ids are rank-by-name: sorted labels align with sorted ids
    val rows = cat.orderBy("label").collect()
    rows.zipWithIndex.foreach { case (r, i) => assert(r.getString(0) === s"brand:$i") }
  }

  test("unifyBrands is idempotent on duplicated registry rows") {
    val reg = BusinessSynth.externalBrands(spark, world)
    val cat = SchemaMapping.unifyBrands(spark, reg.union(reg))
    assert(cat.count() === world.brands.size)
  }

  test("oracle: per-level place counts match DuckDB") {
    val counts = unified.groupBy("level").agg(count(lit(1)) as "n").orderBy("level")
    repro.Oracle.assertEquivalent(counts,
      "SELECT level, count(*) AS n FROM places GROUP BY level ORDER BY level",
      "places" -> unified.select(col("level").cast("string") as "level"))
  }
}
