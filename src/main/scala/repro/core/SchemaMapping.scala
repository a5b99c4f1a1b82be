package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StringType, StructField, StructType}
import org.apache.spark.unsafe.types.UTF8String
import scala.jdk.CollectionConverters._

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

  /** Normalize source B (code, name, levelName, parentCode); rows with an
    * unknown level name drop out.
    */
  def normalizePlacesB(b: DataFrame): DataFrame = {
    val level = LevelOfName.foldLeft(lit(null).cast("int")) {
      case (acc, (name, l)) => when(col("levelName") === name, lit(l)).otherwise(acc)
    }
    b.select(lit("B") as "src", col("code") as "srcId", col("name") as "label",
      level as "level", col("parentCode") as "parentSrcId")
      .filter(col("level").isNotNull)
  }

  /** Attach the ancestor label path ("root/…/self") to each row.
    *
    * The walk runs on the driver over the collected rows (place sources
    * hold about a thousand rows) and follows at most `maxDepth - 1`
    * parent links, as the bounded parent join it replaces did: a parent
    * is looked up within the same `src` by `srcId`; a missing or null
    * parent ends the walk; a parent with a null label adds nothing to
    * the path but the walk goes on past it; a null own label gives a
    * null path; an id that occurs twice yields one row per match.
    */
  def withLabelPath(norm: DataFrame, maxDepth: Int = 5): DataFrame = {
    val spark = norm.sparkSession
    val base = norm.select(col("src"), col("srcId"), col("label"), col("level"),
      col("parentSrcId"))
    val rows = base.collect().toSeq
    val parentsOf: Map[(String, String), Seq[(String, String)]] =
      rows.filter(r => !r.isNullAt(0) && !r.isNullAt(1))
        .groupMap(r => (r.getString(0), r.getString(1)))(r => (r.getString(2), r.getString(4)))
    def walk(src: String, cursor: String, path: String, hops: Int): Seq[String] =
      if (hops <= 0) Seq(path)
      else {
        val parents = Option(cursor).flatMap(c => parentsOf.get((src, c)))
          .getOrElse(Seq((null, null)))
        parents.flatMap { case (pLabel, pParent) =>
          val p = if (pLabel == null) path else if (path == null) null else s"$pLabel/$path"
          walk(src, pParent, p, hops - 1)
        }
      }
    val pathed = rows.flatMap { r =>
      walk(r.getString(0), r.getString(4), r.getString(2), maxDepth - 1)
        .map(p => Row.fromSeq(r.toSeq :+ p))
    }
    spark.createDataFrame(pathed.asJava, base.schema.add("path", StringType))
  }

  /** Spark's string order (UTF-8 bytes, unsigned), nulls first. */
  private[core] val sparkStringOrder: Ordering[String] = Ordering.fromLessThan { (a, b) =>
    if (a == null) b != null
    else b != null && UTF8String.fromString(a).compareTo(UTF8String.fromString(b)) < 0
  }

  /** Canonical place table: (id, label, level, parent) with deterministic
    * ids `place:<level>:<rank>`, rank by path within the level.
    *
    * Source A is authoritative (covers all levels, full root paths).
    * Source B lacks countries, so its paths are relative to level 2; B
    * rows are aligned to A entities by (level, path relative to level 2)
    * — the schema-mapping step proper. B rows with no A counterpart are
    * appended as new canonical entities (their country is unknown, so
    * they root at level 2).
    *
    * Both catalogs are dimension tables of about a thousand rows, so the
    * mapping runs on the driver with SQL semantics: nulls group together
    * and never join, strings compare as Spark compares them.
    */
  def unifyPlaces(spark: SparkSession, placesA: DataFrame, placesB: DataFrame): DataFrame = {
    final case class Entity(level: Integer, path: String, label: String, relPath: String)
    implicit val ord: Ordering[String] = sparkStringOrder
    // One entity per (level, path), labelled by the smallest label.
    def dedup(pathed: DataFrame): Seq[(Integer, String, String)] =
      pathed.select("level", "path", "label").collect().toSeq
        .groupMap(r => (r.getAs[Integer](0), r.getString(1)))(r => r.getString(2))
        .toSeq.map { case ((level, path), labels) =>
          val nonNull = labels.filter(_ != null)
          (level, path, if (nonNull.isEmpty) null else nonNull.min)
        }
    // Path relative to level 2 (drop the country component) — the key B
    // rows can actually produce.
    val fromA = dedup(withLabelPath(normalizePlacesA(placesA))).map { case (level, path, label) =>
      val rel = if (level != null && level == 1 || path == null) path
        else path.substring(path.indexOf('/') + 1)
      Entity(level, path, label, rel)
    }
    val aKeys = fromA.collect { case e if e.level != null && e.relPath != null =>
      (e.level, e.relPath) }.toSet
    // B entities that match no A entity at (level, relPath) become new
    // rows; their country is unknown, so the B path is already relative.
    val fromB = dedup(withLabelPath(normalizePlacesB(placesB)))
      .filterNot { case (level, path, _) =>
        level != null && path != null && aKeys((level, path)) }
      .map { case (level, path, label) =>
        Entity(level, if (path == null) null else s"?/$path", label, path) }

    val canon = (fromA ++ fromB).groupBy(_.level).toSeq.flatMap { case (level, es) =>
      es.sortBy(_.path).zipWithIndex.map { case (e, rank) =>
        (if (level == null) null else s"place:$level:$rank", e)
      }
    }
    // Parent = the entity one level up whose path is this path minus its
    // trailing "/label" component.
    val idsByPathLevel = canon.collect { case (id, e) if e.path != null && e.level != null =>
      (e.path, e.level.intValue) -> id }.groupMap(_._1)(_._2)
    val rows = canon.flatMap { case (id, e) =>
      val parentPath =
        if (e.path == null || e.label == null || e.path == e.label) null
        else e.path.substring(0, math.max(0, e.path.length - e.label.length - 1))
      val parents =
        if (parentPath == null || e.level == null) Nil
        else idsByPathLevel.getOrElse((parentPath, e.level - 1), Nil)
      (if (parents.isEmpty) Seq("") else parents).map(p => Row(id, e.label, e.level, p))
    }
    spark.createDataFrame(rows.asJava, StructType(Seq(
      StructField("id", StringType), StructField("label", StringType),
      StructField("level", IntegerType), StructField("parent", StringType))))
  }

  /** Canonical brand table from the registry:
    * (id, label, topGroup, logoUrl, aliases), deterministic ids by name rank.
    * A name registered more than once takes its fields from the record
    * with the lowest registry number (records without one are skipped).
    * The registry is a dimension table; the mapping runs on the driver.
    */
  def unifyBrands(spark: SparkSession, registry: DataFrame): DataFrame = {
    implicit val ord: Ordering[String] = sparkStringOrder
    val fields = Seq("topGroup", "logoUrl", "aliases")
    val rows = registry.select(("name" +: "regNo" +: fields).map(col): _*).collect().toSeq
      .groupBy(_.getString(0)).toSeq.sortBy(_._1).zipWithIndex.map { case ((name, recs), rank) =>
        val best = recs.filter(!_.isNullAt(1)).sortBy(_.getString(1)).headOption
        Row.fromSeq(Seq(s"brand:$rank", name) ++ fields.indices.map(i => best.map(_.get(2 + i)).orNull))
      }
    spark.createDataFrame(rows.asJava, StructType(
      Seq(StructField("id", StringType), StructField("label", StringType)) ++
        registry.select(fields.map(col): _*).schema.fields))
  }
}
