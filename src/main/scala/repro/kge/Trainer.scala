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

/** SGD with negative sampling: each positive is paired with `negPerPos`
  * corruptions, each of the tail with probability `tailCorruptFrac` and
  * of the head otherwise (the link-prediction roster corrupts tails
  * only). Deterministic in the seed; runs on the driver — model state is
  * a few MB, the data arrays come pre-packed from Spark (KgeData).
  */
object Trainer {

  def train(model: KgeModel, data: KgeDataset, cfg: TrainConfig): KgeModel = {
    val n = data.nTrain
    val rnd = new java.util.Random(cfg.seed)
    val order = Array.tabulate(n)(identity)

    // Per-relation head/tail pools for type-constrained ("hard") negatives:
    // half the corruptions come from entities observed in the same slot of
    // the same relation, so the model must discriminate within a type, not
    // just across types. The rest stay uniform (keeps types separated).
    val nRel = data.nRel
    val tailPool = Array.fill(nRel)(scala.collection.mutable.ArrayBuffer[Int]())
    val headPool = Array.fill(nRel)(scala.collection.mutable.ArrayBuffer[Int]())
    var p = 0
    while (p < n) {
      tailPool(data.trainR(p)) += data.trainT(p)
      headPool(data.trainR(p)) += data.trainH(p)
      p += 1
    }
    val tails = tailPool.map(_.toArray)
    val heads = headPool.map(_.toArray)

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
            if (t2 != t) model.update(h, r, t, h, t2, cfg.lr, cfg.margin)
          } else {
            // corrupt head
            val pool = heads(r)
            var h2 = if (hard && pool.length > 1) pool(rnd.nextInt(pool.length))
                     else rnd.nextInt(data.nEnt)
            if (h2 == h) h2 = rnd.nextInt(data.nEnt)
            if (h2 != h) model.update(h, r, t, h2, t, cfg.lr, cfg.margin)
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
