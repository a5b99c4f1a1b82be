package repro.kge

/** Hyperparameters of one training run. */
final case class TrainConfig(
    epochs: Int = 20,
    lr: Double = 0.05,
    margin: Double = 2.0,
    negPerPos: Int = 2,
    seed: Long = 17L,
    hardNegFrac: Double = 0.25,
    tailCorruptFrac: Double = 0.5)

/** `java.util.Random`'s 48-bit linear congruential generator without its
  * atomic seed: the same seed scrambling, the same `nextInt(bound)`
  * (power-of-two shortcut and rejection loop) and the same `nextDouble`,
  * so it draws what `new java.util.Random(seed)` draws, call for call.
  * Not thread-safe; one training run owns one.
  */
final class Lcg48(seed: Long) {
  private var state = (seed ^ 0x5DEECE66DL) & ((1L << 48) - 1)

  private def next(bits: Int): Int = {
    state = (state * 0x5DEECE66DL + 0xBL) & ((1L << 48) - 1)
    (state >>> (48 - bits)).toInt
  }

  def nextInt(bound: Int): Int = {
    require(bound > 0, "bound must be positive")
    var r = next(31)
    val m = bound - 1
    if ((bound & m) == 0) ((bound * r.toLong) >> 31).toInt
    else {
      var u = r
      r = u % bound
      while (u - r + m < 0) { u = next(31); r = u % bound }
      r
    }
  }

  /** Dividing by 2⁵³ is exact, as is the JDK's `* 0x1.0p-53`. */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) / (1L << 53).toDouble
}

/** SGD with negative sampling: each positive is paired with `negPerPos`
  * corruptions, each of the tail with probability `tailCorruptFrac` and
  * of the head otherwise (the link-prediction roster corrupts tails
  * only). Deterministic in the seed; runs on the driver — model state is
  * a few MB, the data arrays come pre-packed from Spark (KgeData).
  *
  * Shuffles and negatives are drawn from one `Lcg48` seeded with
  * `cfg.seed`: the draws of `new java.util.Random(cfg.seed)`, in the same
  * order, without the compare-and-set `java.util.Random` pays per draw.
  */
object Trainer {

  def train(model: KgeModel, data: KgeDataset, cfg: TrainConfig): KgeModel = {
    val n = data.nTrain
    val rnd = new Lcg48(cfg.seed)
    val order = Array.range(0, n)

    // Per-relation head/tail pools for type-constrained ("hard") negatives:
    // half the corruptions come from entities observed in the same slot of
    // the same relation, so the model must discriminate within a type, not
    // just across types. The rest stay uniform (keeps types separated).
    val nRel = data.nRel
    val tailPool = Array.fill(nRel)(new scala.collection.mutable.ArrayBuilder.ofInt)
    val headPool = Array.fill(nRel)(new scala.collection.mutable.ArrayBuilder.ofInt)
    // `addOne`, not `+=`: the generic `+=` boxes every Int.
    var p = 0
    while (p < n) {
      tailPool(data.trainR(p)).addOne(data.trainT(p))
      headPool(data.trainR(p)).addOne(data.trainH(p))
      p += 1
    }
    val tails = tailPool.map(_.result())
    val heads = headPool.map(_.result())

    var epoch = 0
    while (epoch < cfg.epochs) {
      // Fisher-Yates shuffle, deterministic.
      var i = n - 1
      while (i > 0) {
        val j = rnd.nextInt(i + 1)
        val tmp = order(i); order(i) = order(j); order(j) = tmp
        i -= 1
      }
      var k = 0
      while (k < n) {
        val idx = order(k)
        val h = data.trainH(idx); val r = data.trainR(idx); val t = data.trainT(idx)
        var neg = 0
        while (neg < cfg.negPerPos) {
          val hard = rnd.nextDouble() < cfg.hardNegFrac
          if (rnd.nextDouble() < cfg.tailCorruptFrac) {
            // corrupt tail
            val pool = tails(r)
            var t2 = if (hard && pool.length > 1) pool(rnd.nextInt(pool.length))
                     else rnd.nextInt(data.nEnt)
            if (t2 == t) t2 = rnd.nextInt(data.nEnt)
            if (t2 != t) { model.update(h, r, t, h, t2, cfg.lr, cfg.margin); () }
          } else {
            // corrupt head
            val pool = heads(r)
            var h2 = if (hard && pool.length > 1) pool(rnd.nextInt(pool.length))
                     else rnd.nextInt(data.nEnt)
            if (h2 == h) h2 = rnd.nextInt(data.nEnt)
            if (h2 != h) { model.update(h, r, t, h2, t, cfg.lr, cfg.margin); () }
          }
          neg += 1
        }
        k += 1
      }
      epoch += 1
    }
    model
  }
}
