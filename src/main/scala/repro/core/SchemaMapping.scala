package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Schema-mapping construction of "Place" and "Brand" (paper II-B).
  *
  * Place data arrives from two heterogeneous external KGs — a
  * Wikidata-like source (integer admin levels, QID parents) and an
  * OpenKG-like source (string level names, code parents, no countries).
  * The mapper normalizes both into a common shape, deduplicates
  * entities by their full hierarchical label path (label alone is
  * ambiguous — distinct towns share names), mints deterministic
  * canonical ids, and resolves parent pointers in the canonical space.
  */
object SchemaMapping {

  private val LevelOfName = Map("country" -> 1, "province" -> 2, "city" -> 3,
    "county" -> 4, "town" -> 5)

  /** Normalize source A (qid, nameLabel, adminLevel, parentQid). */
  def normalizePlacesA(a: DataFrame): DataFrame =
    a.select(lit("A") as "src", col("qid") as "srcId", col("nameLabel") as "label",
      col("adminLevel").cast("int") as "level", col("parentQid") as "parentSrcId")

  /** Normalize source B (code, name, levelName, parentCode). */
  def normalizePlacesB(spark: SparkSession, b: DataFrame): DataFrame = {
    import spark.implicits._
    val lvl = LevelOfName.toSeq.toDF("levelName", "level")
    b.join(lvl, Seq("levelName"))
      .select(lit("B") as "src", col("code") as "srcId", col("name") as "label",
        col("level"), col("parentCode") as "parentSrcId")
  }

  /** Attach the full ancestor label path ("root/…/self") to each row by
    * iterated parent joins (taxonomy depth is bounded by `maxDepth`).
    */
  def withLabelPath(norm: DataFrame, maxDepth: Int = 5): DataFrame = {
    var cur = norm.select(col("src"), col("srcId"), col("label"), col("level"),
      col("parentSrcId"), col("label") as "path", col("parentSrcId") as "cursor")
    val parents = norm.select(col("src") as "p_src", col("srcId") as "p_srcId",
      col("label") as "p_label", col("parentSrcId") as "p_parent")
    for (_ <- 1 until maxDepth) {
      cur = cur
        .join(parents,
          cur("src") === parents("p_src") && cur("cursor") === parents("p_srcId"),
          "left")
        .select(col("src"), col("srcId"), col("label"), col("level"), col("parentSrcId"),
          when(col("p_label").isNotNull, concat(col("p_label"), lit("/"), col("path")))
            .otherwise(col("path")) as "path",
          col("p_parent") as "cursor")
    }
    cur.drop("cursor")
  }

  /** Canonical place table: (id, label, level, parent) with deterministic
    * ids `place:<level>:<rank>`.
    *
    * Source A is authoritative (covers all levels, full root paths).
    * Source B lacks countries, so its paths are relative to level 2; B
    * rows are aligned to A entities by (level, path relative to level 2)
    * — the schema-mapping step proper. B rows with no A counterpart are
    * appended as new canonical entities (their country is unknown, so
    * they root at level 2).
    */
  def unifyPlaces(spark: SparkSession, placesA: DataFrame, placesB: DataFrame): DataFrame = {
    val pathedA = withLabelPath(normalizePlacesA(placesA))
    val pathedB = withLabelPath(normalizePlacesB(spark, placesB))

    // Canonical entities from A: one per (level, full path).
    val dedupA = pathedA.groupBy(col("level"), col("path"))
      .agg(min(col("label")) as "label")
      // Path relative to level 2 (drop the country component) — the key
      // B rows can actually produce.
      .withColumn("relPath",
        when(col("level") === 1, col("path"))
          .otherwise(expr("substring(path, instr(path, '/') + 1)")))

    // B entities that match no A entity at (level, relPath) become new rows.
    val dedupB = pathedB.groupBy(col("level"), col("path"))
      .agg(min(col("label")) as "label")
    val newFromB = dedupB
      .join(dedupA.select(col("level"), col("relPath") as "path"), Seq("level", "path"),
        "left_anti")
      // Unknown country: the B path is already relative to level 2.
      .withColumn("relPath", col("path"))
      .withColumn("path", concat(lit("?/"), col("path")))

    val all = dedupA.unionByName(newFromB)
    val w = Window.partitionBy(col("level")).orderBy(col("path"))
    val canon = all.withColumn("rank", row_number.over(w) - 1)
      .withColumn("id", concat(lit("place:"), col("level"), lit(":"), col("rank")))
      .select(col("id"), col("label"), col("level"), col("path"))

    // Parent path = path minus the trailing "/label" component.
    val withParentPath = canon.withColumn("parentPath",
      when(col("path") === col("label"), lit(null))
        .otherwise(expr("substring(path, 1, length(path) - length(label) - 1)")))
    val parentSide = canon.select(col("id") as "parentId", col("path") as "pp",
      col("level") as "plevel")
    withParentPath
      .join(parentSide,
        withParentPath("parentPath") === parentSide("pp") &&
          parentSide("plevel") === withParentPath("level") - 1,
        "left")
      .select(col("id"), col("label"), col("level"),
        coalesce(col("parentId"), lit("")) as "parent")
  }

  /** Canonical brand table from the registry:
    * (id, label, topGroup, logoUrl, aliases), deterministic ids by name rank.
    * A name registered more than once takes its fields from the record
    * with the lowest registry number.
    */
  def unifyBrands(spark: SparkSession, registry: DataFrame): DataFrame = {
    val dedup = registry.groupBy(col("name"))
      .agg(min_by(struct(col("topGroup"), col("logoUrl"), col("aliases")), col("regNo"))
        as "rec")
      .select(col("name"), col("rec.*"))
    val w = Window.orderBy(col("name"))
    dedup.withColumn("rank", row_number.over(w) - 1)
      .select(concat(lit("brand:"), col("rank")) as "id", col("name") as "label",
        col("topGroup"), col("logoUrl"), col("aliases"))
  }
}
