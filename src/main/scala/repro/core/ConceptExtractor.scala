package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Bottom-up concept construction (paper II-C).
  *
  * The paper extracts concept mentions from large-scale business text
  * (titles, reviews, queries) with a BERT-CRF sequence tagger. The
  * substitute keeps the same *structure*: per-token emission scores over
  * BIO tags (driven by a concept lexicon trie — the stand-in for BERT's
  * contextual scorer) decoded with a Viterbi pass under CRF-style
  * transition constraints (`I-x` may only follow `B-x`/`I-x`; `O` may
  * not transition into `I-*`). Mentions are aggregated per product and
  * thresholded into candidate concept links, which QualityControl then
  * filters on commonsense facets.
  */
object ConceptExtractor {

  /** A single extracted mention. */
  final case class Mention(productId: String, ctype: String, conceptId: String)

  /** Lexicon-driven tagger, built on the driver and captured by the
    * Spark closure that tags the corpus.
    */
  final class Tagger(lexicon: Seq[(String, String, String)]) extends Serializable {
    // lexicon rows: (conceptId, label, ctype)
    private val trie = new TokenTrie
    private val metaById: Map[String, (String, String)] =
      lexicon.map { case (id, lbl, ct) => id -> ((lbl, ct)) }.toMap
    lexicon.foreach { case (id, lbl, _) => trie.insert(LabelMatcher.tokens(lbl), id) }

    /** Emission scoring + Viterbi decode; returns mentions as (id, ctype).
      *
      * Emission: a lexicon match of length L starting at position i gives
      * tag `B` at i and `I` at i+1..i+L-1 a score of L (longer spans
      * dominate); every position scores 0.5 for `O`. Transitions: -inf
      * for O→I and for I that does not continue the span that opened it;
      * 0 otherwise. With these scores Viterbi yields leftmost-longest
      * span selection — the behaviour of a well-trained BIO CRF.
      */
    def tag(text: String): Seq[(String, String)] = {
      val toks = LabelMatcher.tokens(text)
      if (toks.isEmpty) return Nil
      val n = toks.length
      // For each position the best (longest) match that starts there.
      val startMatch: Array[Option[(String, Int)]] =
        Array.tabulate(n)(i => trie.matchAt(toks, i))

      // Viterbi over states: 0 = O, 1 = inside-span. Because emissions
      // only come from trie matches, the inside state is fully determined
      // by the chosen span start; we decode by dynamic programming over
      // "best segmentation score up to i".
      val best = new Array[Double](n + 1)
      val choice = new Array[Int](n + 1) // span length chosen at i (0 = O)
      java.util.Arrays.fill(best, Double.NegativeInfinity)
      best(0) = 0.0
      var i = 0
      while (i < n) {
        if (best(i) != Double.NegativeInfinity) {
          // O transition
          if (best(i) + 0.5 > best(i + 1)) { best(i + 1) = best(i) + 0.5; choice(i + 1) = 0 }
          // B..I span transition. The tiny (n - i) bonus breaks score ties
          // in favour of earlier span starts — leftmost-longest decoding.
          startMatch(i).foreach { case (_, len) =>
            val s = best(i) + len.toDouble * 1.5 + 1e-9 * (n - i)
            if (s > best(i + len)) { best(i + len) = s; choice(i + len) = len }
          }
        }
        i += 1
      }
      // Backtrack.
      val out = scala.collection.mutable.ArrayBuffer[(String, String)]()
      var j = n
      while (j > 0) {
        val len = choice(j)
        if (len == 0) j -= 1
        else {
          val (id, _) = startMatch(j - len).get
          val (_, ct) = metaById(id)
          out += ((id, ct))
          j -= len
        }
      }
      out.reverse.toSeq
    }
  }

  /** Run the tagger over the corpus; one row per (product, concept) with
    * its mention support count.
    * @param corpus  (docId, kind, productId, text)
    * @param lexicon (conceptId, label, ctype) — level-2 (leaf) concepts
    * @return (productId, ctype, conceptId, support)
    */
  def extract(spark: SparkSession, corpus: DataFrame, lexicon: DataFrame): DataFrame = {
    import spark.implicits._
    val lex = lexicon.select("conceptId", "label", "ctype").as[(String, String, String)]
      .collect().toSeq
    val tagger = new Tagger(lex)
    corpus.select("productId", "text").as[(String, String)]
      .flatMap { case (pid, text) =>
        tagger.tag(text).map { case (cid, ct) => (pid, ct, cid) }
      }
      .toDF("productId", "ctype", "conceptId")
      .groupBy("productId", "ctype", "conceptId")
      .agg(count(lit(1)) as "support")
  }

  /** Link market-segment metadata (clean platform strings) to market
    * concepts by exact label matching — the `inMarket*` source.
    * @param rawProducts must contain (pid, marketTexts)
    * @return (productId, conceptId)
    */
  def linkMarkets(spark: SparkSession, rawProducts: DataFrame, lexicon: DataFrame): DataFrame = {
    import spark.implicits._
    val marketByLabel = lexicon.filter(col("ctype") === "market")
      .select("label", "conceptId").as[(String, String)].collect().toMap
    rawProducts.select("pid", "marketTexts").as[(String, Seq[String])]
      .flatMap { case (pid, ms) => ms.flatMap(m => marketByLabel.get(m)).distinct.map(c => (pid, c)) }
      .toDF("productId", "conceptId")
  }
}
