package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** Token-level prefix trie mapping label token sequences to an id.
  * `longestMatch` walks input tokens and returns the deepest terminal —
  * this is the paper's "trie prefix tree precise matching": an alias of
  * the form "<canonical name> <extra token>" resolves to the canonical
  * entry even though the full string is unknown.
  */
final class TokenTrie extends Serializable {
  private final class Node extends Serializable {
    val children: mutable.HashMap[String, Node] = mutable.HashMap.empty
    var terminal: Option[String] = None
  }
  private val root = new Node

  /** Insert label → id. First insertion wins on duplicate labels. */
  def insert(label: Seq[String], id: String): Unit = {
    var n = root
    label.foreach(t => n = n.children.getOrElseUpdate(t, new Node))
    if (n.terminal.isEmpty) n.terminal = Some(id)
  }

  /** Deepest terminal reachable along a prefix of `tokens`. */
  def longestMatch(tokens: Seq[String]): Option[String] = {
    var n = root
    var best: Option[String] = n.terminal
    val it = tokens.iterator
    var go = true
    while (go && it.hasNext) {
      n.children.get(it.next()) match {
        case Some(c) => n = c; if (c.terminal.nonEmpty) best = c.terminal
        case None    => go = false
      }
    }
    best
  }

  /** Longest terminal match *starting at* tokens(from); returns (id, length). */
  def matchAt(tokens: IndexedSeq[String], from: Int): Option[(String, Int)] = {
    var n = root
    var best: Option[(String, Int)] = None
    var i = from
    var go = true
    while (go && i < tokens.length) {
      n.children.get(tokens(i)) match {
        case Some(c) =>
          n = c; i += 1
          if (c.terminal.nonEmpty) best = Some((c.terminal.get, i - from))
        case None => go = false
      }
    }
    best
  }
}

/** Exact-trie + fuzzy-synonym label matching linking products to the
  * canonical Place and Brand catalogs (paper II-B.3).
  */
object LabelMatcher {

  def normalize(s: String): String = s.trim.toLowerCase

  def tokens(s: String): IndexedSeq[String] =
    normalize(s).split("\\s+").filter(_.nonEmpty).toIndexedSeq

  /** Damerau–Levenshtein distance capped at `cap` (returns cap+1 beyond). */
  def damerau(a: String, b: String, cap: Int = 1): Int = {
    if (math.abs(a.length - b.length) > cap) return cap + 1
    val d = Array.ofDim[Int](a.length + 1, b.length + 1)
    for (i <- 0 to a.length) d(i)(0) = i
    for (j <- 0 to b.length) d(0)(j) = j
    for (i <- 1 to a.length; j <- 1 to b.length) {
      val cost = if (a(i - 1) == b(j - 1)) 0 else 1
      var v = math.min(math.min(d(i - 1)(j) + 1, d(i)(j - 1) + 1), d(i - 1)(j - 1) + cost)
      if (i > 1 && j > 1 && a(i - 1) == b(j - 2) && a(i - 2) == b(j - 1))
        v = math.min(v, d(i - 2)(j - 2) + 1)
      d(i)(j) = v
    }
    math.min(d(a.length)(b.length), cap + 1)
  }

  /** Catalog matcher: exact trie over canonical labels and known aliases,
    * plus an edit-distance-1 fuzzy fallback bucketed by string length.
    * Serializable: built on the driver, shipped inside Spark closures.
    */
  final class Matcher(entries: Seq[(String, Seq[String])]) extends Serializable {
    // entries: (canonicalId, all surface forms — canonical label first)
    private val trie = new TokenTrie
    private val byLen = mutable.HashMap[Int, mutable.ArrayBuffer[(String, String)]]()
    entries.foreach { case (id, forms) =>
      forms.foreach { f =>
        val norm = normalize(f)
        trie.insert(tokens(f), id)
        byLen.getOrElseUpdate(norm.length, mutable.ArrayBuffer.empty) += ((norm, id))
      }
    }

    /** Exact/prefix match. */
    def exact(text: String): Option[String] =
      if (text.trim.isEmpty) None else trie.longestMatch(tokens(text))

    /** Fuzzy match at Damerau-Levenshtein distance <= 1 (deterministic
      * tie-break by id). Only consulted when `exact` misses.
      */
    def fuzzy(text: String): Option[String] = {
      val norm = normalize(text)
      if (norm.isEmpty) None
      else {
        val cands = (norm.length - 1 to norm.length + 1)
          .flatMap(l => byLen.getOrElse(l, Nil))
        cands.filter { case (f, _) => damerau(norm, f) <= 1 }
          .sortBy(_._2).headOption.map(_._2)
      }
    }

    /** Full pipeline: exact first, fuzzy fallback; tagged with the method. */
    def matchText(text: String): Option[(String, String)] =
      exact(text).map(id => (id, "exact"))
        .orElse(fuzzy(text).map(id => (id, "fuzzy")))
  }

  /** Link raw products to the canonical brand catalog.
    * @param brandCatalog (id, label, aliases) — from SchemaMapping.unifyBrands
    * @return (pid, brandId, method)
    */
  def linkBrands(spark: SparkSession, rawProducts: DataFrame, brandCatalog: DataFrame): DataFrame = {
    import spark.implicits._
    val entries = brandCatalog.select("id", "label", "aliases").collect().map { r =>
      (r.getString(0), r.getString(1) +: r.getSeq[String](2))
    }.toSeq
    val matcher = new Matcher(entries)
    rawProducts.select("pid", "brandText").as[(String, String)].flatMap { case (pid, txt) =>
      matcher.matchText(txt).map { case (id, m) => (pid, id, m) }
    }.toDF("pid", "brandId", "method")
  }

  /** Link raw products to the canonical place catalog. Raw place strings
    * may carry a variant suffix token ("shi"); it is stripped before
    * matching. Ambiguous labels resolve to the deepest (most specific)
    * level, then lexicographic id.
    * @param placeCatalog (id, label, level, parent) — from unifyPlaces
    * @return (pid, placeId, method)
    */
  def linkPlaces(spark: SparkSession, rawProducts: DataFrame, placeCatalog: DataFrame): DataFrame = {
    import spark.implicits._
    val entries = placeCatalog.select("id", "label", "level").collect()
      .map(r => (r.getString(0), r.getString(1), r.getInt(2)))
      .sortBy { case (id, _, lvl) => (-lvl, id) }
      .map { case (id, label, _) => (id, Seq(label)) }.toSeq
    val matcher = new Matcher(entries)
    rawProducts.select("pid", "placeText").as[(String, String)].flatMap { case (pid, txt) =>
      val stripped = tokens(txt).filterNot(_ == "shi").mkString(" ")
      matcher.matchText(stripped).map { case (id, m) => (pid, id, m) }
    }.toDF("pid", "placeId", "method")
  }
}
