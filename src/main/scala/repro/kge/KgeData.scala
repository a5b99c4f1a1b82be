package repro.kge

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.benchmark.Benchmark
import repro.core.Kg

/** An integer-indexed link-prediction dataset collected to the driver.
  *
  * Spark builds the benchmark (dictionaries, splits, truth sets, feature
  * matrices); the embedding models then train on dense int arrays — the
  * standard "dataflow prepares, driver optimizes" split for models whose
  * parameters fit in a few MB. Ranking stays on the driver too: each
  * model ranks every entity for every test triple on its own thread.
  *
  * @param entIds    index → entity id (position = index)
  * @param relIds    index → relation id
  * @param trainH/R/T packed train triples, sorted by (h, r, t) index (as
  *                  are dev and test)
  * @param entText   L2-normalized hashed character-n-gram label features,
  *                  one row per entity (the stand-in text encoder)
  * @param entImage  image feature row per entity or null (single-modal
  *                  entities / non-product entities)
  * @param truth     ALL known tails of each (h, r) across
  *                  train+dev+test — the filtered-eval protocol
  */
final case class KgeDataset(
    name: String,
    entIds: Array[String],
    relIds: Array[String],
    trainH: Array[Int], trainR: Array[Int], trainT: Array[Int],
    devH: Array[Int], devR: Array[Int], devT: Array[Int],
    testH: Array[Int], testR: Array[Int], testT: Array[Int],
    entText: Array[Array[Float]],
    entImage: Array[Array[Float]],
    truth: KnownTails) {

  def nEnt: Int = entIds.length
  def nRel: Int = relIds.length
  def nTrain: Int = trainH.length

  def knownTails(h: Int, r: Int): Array[Int] = truth(h, r)
}

/** Filtered-eval truth sets keyed by primitive ints: per relation, the
  * heads that have a known tail in ascending order, and per such head its
  * known tails, sorted. A lookup is a binary search and allocates nothing.
  */
final class KnownTails private (heads: Array[Array[Int]], tails: Array[Array[Array[Int]]]) {

  /** The sorted known tails of (h, r); empty if there are none. */
  def apply(h: Int, r: Int): Array[Int] = {
    val i = java.util.Arrays.binarySearch(heads(r), h)
    if (i < 0) Array.emptyIntArray else tails(r)(i)
  }
}

object KnownTails {

  /** Truth sets of the (h, r, t) triples of every split, duplicates kept. */
  def apply(nRel: Int, splits: Seq[(Array[Int], Array[Int], Array[Int])]): KnownTails = {
    // (h, t) packed into one long per relation: sorting orders by head,
    // then tail (both are non-negative).
    val pairs = Array.fill(nRel)(new scala.collection.mutable.ArrayBuilder.ofLong)
    splits.foreach { case (h, r, t) =>
      var i = 0
      while (i < h.length) { pairs(r(i)).addOne((h(i).toLong << 32) | t(i)); i += 1 }
    }
    val heads = new Array[Array[Int]](nRel)
    val tails = new Array[Array[Array[Int]]](nRel)
    var r = 0
    while (r < nRel) {
      val ht = pairs(r).result()
      java.util.Arrays.sort(ht)
      val hs = new scala.collection.mutable.ArrayBuilder.ofInt
      val ts = scala.collection.mutable.ArrayBuilder.make[Array[Int]]
      var i = 0
      while (i < ht.length) {
        val h = (ht(i) >>> 32).toInt
        var j = i
        while (j < ht.length && (ht(j) >>> 32).toInt == h) j += 1
        hs.addOne(h)
        ts += java.util.Arrays.copyOfRange(ht, i, j).map(_.toInt)
        i = j
      }
      heads(r) = hs.result()
      tails(r) = ts.result()
      r += 1
    }
    new KnownTails(heads, tails)
  }
}

object KgeData {

  /** Deterministic hashed text features of a label: word unigrams (full
    * weight — the crisp overlap signal a subword encoder recovers) plus
    * character trigrams (half weight — fuzzy subword similarity). Hash
    * collisions at `dim` are intentional: they bound how exactly a text
    * scorer can pin an entity, reproducing the low-Hits/good-MR signature
    * of PLM-based KGC baselines.
    */
  def textFeature(label: String, dim: Int): Array[Float] = {
    val v = new Array[Float](dim)
    val lower = label.toLowerCase
    lower.split("\\s+").filter(_.nonEmpty).foreach { w =>
      val h = repro.synth.Vocab.mix(w.hashCode.toLong * 131L + 17L)
      v(math.floorMod(h, dim).toInt) += (if (((h >>> 17) & 1L) == 1L) 1f else -1f)
    }
    val s = "^" + lower + "$"
    var i = 0
    while (i + 3 <= s.length) {
      val g = s.substring(i, i + 3)
      val h = repro.synth.Vocab.mix(g.hashCode.toLong)
      v(math.floorMod(h, dim).toInt) += (if (((h >>> 17) & 1L) == 1L) 0.5f else -0.5f)
      i += 1
    }
    val n = math.sqrt(v.map(x => x * x).sum).toFloat
    if (n > 0) { var j = 0; while (j < dim) { v(j) /= n; j += 1 } }
    v
  }

  /** Collect a benchmark into an indexed dataset.
    * @param textDim dimensionality of the hashed label features
    */
  def fromBenchmark(spark: SparkSession, kg: Kg, bench: Benchmark,
                    textDim: Int = 192): KgeDataset = {
    import spark.implicits._

    val entIds = bench.entities.orderBy("entity").as[String].collect()
    val relIds = bench.relations.orderBy("relation").as[String].collect()
    val entIndex = entIds.zipWithIndex.toMap
    val relIndex = relIds.zipWithIndex.toMap

    // Sorted by (h, r, t) index: collected rows come in shuffle-layout
    // order, and the Trainer's seeded shuffle starts from this order.
    def packed(df: org.apache.spark.sql.DataFrame): (Array[Int], Array[Int], Array[Int]) =
      df.select("h", "r", "t").as[(String, String, String)].collect()
        .map { case (h, r, t) => (entIndex(h), relIndex(r), entIndex(t)) }
        .sorted.unzip3
    val (trH, trR, trT) = packed(bench.train)
    val (dvH, dvR, dvT) = packed(bench.dev)
    val (teH, teR, teT) = packed(bench.test)

    // Labels for the text encoder.
    val labelById = kg.nodes.select("id", "label").as[(String, String)].collect().toMap
    val entText = entIds.map(id => textFeature(labelById.getOrElse(id, id), textDim))

    // Image features (null row = single-modal entity), L2-normalized so
    // fusion magnitudes are comparable to the unit-ball embeddings.
    val imgById = kg.images.select(col("pid"), col("vec"))
      .as[(String, Array[Float])].collect().toMap
    val entImage = entIds.map { id =>
      imgById.get(id).map { v =>
        val n = math.sqrt(v.map(x => x * x).sum).toFloat
        if (n > 0) v.map(_ / n) else v
      }.orNull
    }

    // Filtered-eval truth sets over all splits.
    val truth = KnownTails(relIds.length,
      Seq((trH, trR, trT), (dvH, dvR, dvT), (teH, teR, teT)))

    KgeDataset(bench.name, entIds, relIds, trH, trR, trT, dvH, dvR, dvT,
      teH, teR, teT, entText, entImage, truth)
  }
}
