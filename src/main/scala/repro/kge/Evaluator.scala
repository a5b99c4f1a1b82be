package repro.kge

import org.apache.spark.sql.SparkSession

/** Filtered-ranking link-prediction evaluation (tail prediction, the
  * paper's (h, r, ?) protocol): every entity is scored as a candidate
  * tail of each test triple, on the calling thread. `LinkPred.run`
  * ranks each model on its own pool thread, so the roster's pool is the
  * only parallelism on the link-prediction path.
  */
object Evaluator {

  /** Link-prediction metrics over n test triples. */
  final case class Metrics(hits1: Double, hits3: Double, hits10: Double,
                           mr: Double, mrr: Double, n: Long) {
    def row(model: String): String =
      f"$model%-12s ${hits1}%.3f  ${hits3}%.3f  ${hits10}%.3f  ${mr}%7.1f  ${mrr}%.3f"
  }

  /** Filtered rank of the gold tail for one (h, r, t): 1 + the number of
    * non-known entities scoring strictly higher, + half of the ties
    * (deterministic average-tie handling).
    */
  def rankOf(model: KgeModel, data: KgeDataset, h: Int, r: Int, t: Int): Int = {
    val scores = model.scoreTails(h, r)
    val gold = scores(t)
    // A non-finite gold score means the model diverged on this head —
    // worst rank, never a spurious hit (NaN comparisons are all false).
    if (gold.isNaN || gold.isInfinity) return model.rankTransform(data.nEnt)
    val known = data.knownTails(h, r)
    var greater = 0; var ties = 0
    var e = 0
    while (e < scores.length) {
      if (e != t && java.util.Arrays.binarySearch(known, e) < 0) {
        val s = scores(e)
        if (s.isNaN) ()                       // diverged candidate: ignore
        else if (s > gold) greater += 1
        else if (s == gold) ties += 1
      }
      e += 1
    }
    val raw = 1 + greater + ties / 2
    model.rankTransform(raw)
  }

  /** Metrics of the model on the dataset's test split, ranked in test
    * order. Starts no Spark job (`spark` is unused).
    */
  def evaluate(spark: SparkSession, model: KgeModel, data: KgeDataset): Metrics = {
    val ranks = new Array[Int](data.testH.length)
    var i = 0
    while (i < ranks.length) {
      ranks(i) = rankOf(model, data, data.testH(i), data.testR(i), data.testT(i))
      i += 1
    }
    fromRanks(ranks)
  }

  def fromRanks(ranks: Array[Int]): Metrics = {
    val n = ranks.length.toLong
    require(n > 0, "no test triples")
    Metrics(
      hits1 = ranks.count(_ <= 1).toDouble / n,
      hits3 = ranks.count(_ <= 3).toDouble / n,
      hits10 = ranks.count(_ <= 10).toDouble / n,
      mr = ranks.map(_.toDouble).sum / n,
      mrr = ranks.map(1.0 / _).sum / n,
      n = n)
  }
}
