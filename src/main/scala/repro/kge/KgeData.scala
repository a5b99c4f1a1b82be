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
  * @param truth     (h * nRel + r) → sorted array of ALL known tails
  *                  across train+dev+test — the filtered-eval protocol
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
    truth: java.util.HashMap[Long, Array[Int]]) {

  def nEnt: Int = entIds.length
  def nRel: Int = relIds.length
  def nTrain: Int = trainH.length

  def truthKey(h: Int, r: Int): Long = h.toLong * nRel + r

  def knownTails(h: Int, r: Int): Array[Int] = {
    val a = truth.get(truthKey(h, r))
    if (a == null) Array.emptyIntArray else a
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
    val nRel = relIds.length
    val tmp = new java.util.HashMap[Long, scala.collection.mutable.ArrayBuffer[Int]]()
    def add(h: Array[Int], r: Array[Int], t: Array[Int]): Unit = {
      var i = 0
      while (i < h.length) {
        val k = h(i).toLong * nRel + r(i)
        var b = tmp.get(k)
        if (b == null) { b = scala.collection.mutable.ArrayBuffer[Int](); tmp.put(k, b) }
        b += t(i)
        i += 1
      }
    }
    add(trH, trR, trT); add(dvH, dvR, dvT); add(teH, teR, teT)
    val truth = new java.util.HashMap[Long, Array[Int]](tmp.size())
    tmp.forEach((k, b) => truth.put(k, b.toArray.sorted))

    KgeDataset(bench.name, entIds, relIds, trH, trR, trT, dvH, dvR, dvT,
      teH, teR, teT, entText, entImage, truth)
  }
}
