package repro.kge

/** A trainable link-prediction scorer over an integer-indexed KG.
  *
  * Contract: `score` is "higher = more plausible". `update` performs one
  * SGD step on a (positive, negative) pair — each model implements its
  * own loss (margin ranking for the translational models and TuckER,
  * logistic for DistMult and ComplEx) and its own analytic gradients.
  * `scoreTails` scores every entity as the tail of (h, r) for ranking
  * evaluation.
  */
trait KgeModel {
  def name: String
  def nEnt: Int
  def nRel: Int

  def score(h: Int, r: Int, t: Int): Double

  /** One step on positive (h,r,t) vs corrupted (h2,r,t2); returns loss. */
  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double

  def scoreTails(h: Int, r: Int): Array[Double] = {
    val out = new Array[Double](nEnt)
    var t = 0
    while (t < nEnt) { out(t) = score(h, r, t); t += 1 }
    out
  }

  /** Hook for models whose ranking is truncated (GenKGC's beam). */
  def rankTransform(rank: Int): Int = rank
}

/** Small dense float vector helpers shared by the model implementations. */
object VecOps {
  def randArray(n: Int, d: Int, scale: Float, seed: Long): Array[Array[Float]] = {
    val r = new java.util.Random(seed)
    Array.fill(n)(Array.fill(d)(((r.nextFloat() * 2f) - 1f) * scale))
  }

  def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def normalize(a: Array[Float]): Unit = {
    val n = math.sqrt(dot(a, a))
    if (n > 1e-9) { var i = 0; while (i < a.length) { a(i) = (a(i) / n).toFloat; i += 1 } }
  }

  /** Renormalize only if the L2 norm exceeds 1 (soft constraint). */
  def normalizeIfLong(a: Array[Float]): Unit = {
    val n2 = dot(a, a)
    if (n2 > 1.0) {
      val n = math.sqrt(n2)
      var i = 0; while (i < a.length) { a(i) = (a(i) / n).toFloat; i += 1 }
    }
  }

  /** TransE energy of one triple, as a score: −‖h + r − t‖₁. */
  def l1Score(eh: Array[Float], er: Array[Float], et: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < eh.length) { s += math.abs(eh(i) + er(i) - et(i)); i += 1 }
    -s
  }

  /** Sign-gradient step on ‖h + r − t‖₁: dir = +1 decreases the energy of
    * (h, r, t), −1 increases it. The caller renormalizes.
    */
  def l1Push(eh: Array[Float], er: Array[Float], et: Array[Float], dir: Float, lr: Double): Unit = {
    val step = (lr * dir).toFloat
    var i = 0
    while (i < eh.length) {
      val sg = math.signum(eh(i) + er(i) - et(i))
      eh(i) -= step * sg; er(i) -= step * sg; et(i) += step * sg
      i += 1
    }
  }

  def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  def softplus(x: Double): Double =
    if (x > 30) x else if (x < -30) 0.0 else math.log1p(math.exp(x))
}
