package repro.kge

import VecOps._

/** DistMult [Yang et al. 2015]: s = Σ h_i r_i t_i with logistic loss and
  * L2 regularization. Symmetric in (h, t) — the structural weakness the
  * paper's Tables III/IV surface on business relations.
  */
final class DistMult(val nEnt: Int, val nRel: Int, val dim: Int,
                     val l2: Double = 1e-3, seed: Long = 4L) extends KgeModel {
  val name = "DistMult"
  val ent: Array[Array[Float]] = randArray(nEnt, dim, 0.5f, seed)
  val rel: Array[Array[Float]] = randArray(nRel, dim, 0.5f, seed + 1)

  def score(h: Int, r: Int, t: Int): Double = {
    val eh = ent(h); val er = rel(r); val et = ent(t)
    var s = 0.0; var i = 0
    while (i < dim) { s += eh(i) * er(i) * et(i); i += 1 }
    s
  }

  /** Logistic gradient for a labelled triple (y = ±1). */
  private def logStep(h: Int, r: Int, t: Int, y: Double, lr: Double): Double = {
    val s = score(h, r, t)
    val g = -y * sigmoid(-y * s)   // ∂loss/∂s
    val eh = ent(h); val er = rel(r); val et = ent(t)
    var i = 0
    while (i < dim) {
      val gh = g * er(i) * et(i) + l2 * eh(i)
      val gr = g * eh(i) * et(i) + l2 * er(i)
      val gt = g * eh(i) * er(i) + l2 * et(i)
      eh(i) -= (lr * gh).toFloat; er(i) -= (lr * gr).toFloat; et(i) -= (lr * gt).toFloat
      i += 1
    }
    softplus(-y * s)
  }

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double =
    logStep(h, r, t, 1.0, lr) + logStep(h2, r, t2, -1.0, lr)

  override def scoreTails(h: Int, r: Int): Array[Double] = {
    val eh = ent(h); val er = rel(r)
    val q = new Array[Float](dim)
    var i = 0; while (i < dim) { q(i) = eh(i) * er(i); i += 1 }
    val out = new Array[Double](nEnt)
    var t = 0
    while (t < nEnt) { out(t) = dot(q, ent(t)); t += 1 }
    out
  }
}

/** ComplEx [Trouillon et al. 2016]: complex embeddings, s = Re⟨h, r, t̄⟩.
  * Layout: first dim/2 entries are the real part, the rest imaginary.
  */
final class ComplEx(val nEnt: Int, val nRel: Int, val dim: Int,
                    val l2: Double = 1e-3, seed: Long = 5L) extends KgeModel {
  require(dim % 2 == 0, "ComplEx needs an even dimension")
  val name = "ComplEx"
  private val half = dim / 2
  val ent: Array[Array[Float]] = randArray(nEnt, dim, 0.5f, seed)
  val rel: Array[Array[Float]] = randArray(nRel, dim, 0.5f, seed + 1)

  def score(h: Int, r: Int, t: Int): Double = {
    val eh = ent(h); val er = rel(r); val et = ent(t)
    var s = 0.0; var i = 0
    while (i < half) {
      val hr = eh(i); val hi = eh(i + half)
      val rr = er(i); val ri = er(i + half)
      val tr = et(i); val ti = et(i + half)
      s += hr * rr * tr + hi * rr * ti + hr * ri * ti - hi * ri * tr
      i += 1
    }
    s
  }

  private def logStep(h: Int, r: Int, t: Int, y: Double, lr: Double): Double = {
    val s = score(h, r, t)
    val g = -y * sigmoid(-y * s)
    val eh = ent(h); val er = rel(r); val et = ent(t)
    var i = 0
    while (i < half) {
      val hr = eh(i); val hi = eh(i + half)
      val rr = er(i); val ri = er(i + half)
      val tr = et(i); val ti = et(i + half)
      val ghr = g * (rr * tr + ri * ti) + l2 * hr
      val ghi = g * (rr * ti - ri * tr) + l2 * hi
      val grr = g * (hr * tr + hi * ti) + l2 * rr
      val gri = g * (hr * ti - hi * tr) + l2 * ri
      val gtr = g * (hr * rr - hi * ri) + l2 * tr
      val gti = g * (hi * rr + hr * ri) + l2 * ti
      eh(i) -= (lr * ghr).toFloat; eh(i + half) -= (lr * ghi).toFloat
      er(i) -= (lr * grr).toFloat; er(i + half) -= (lr * gri).toFloat
      et(i) -= (lr * gtr).toFloat; et(i + half) -= (lr * gti).toFloat
      i += 1
    }
    softplus(-y * s)
  }

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double =
    logStep(h, r, t, 1.0, lr) + logStep(h2, r, t2, -1.0, lr)
}

/** TuckER [Balažević et al. 2019]: s = W ×₁ h ×₂ r ×₃ t. Implemented in
  * the one-hot-relation special case — the relation embedding selects its
  * own core slice, so the per-relation bilinear map M_r = W ×₂ e_r is a
  * free d×d matrix. With the benchmarks' small relation inventories
  * (14–60) this keeps TuckER's full expressiveness (it is the upper
  * envelope of the shared-core model) at d² per update instead of d³.
  */
final class TuckER(val nEnt: Int, val nRel: Int, val dim: Int,
                   val l2: Double = 1e-4, seed: Long = 6L) extends KgeModel {
  val name = "TuckER"
  val ent: Array[Array[Float]] = randArray(nEnt, dim, 0.5f, seed)
  /** Core slices M_r, row-major d×d per relation. */
  val core: Array[Array[Float]] = {
    val r = new java.util.Random(seed + 2)
    Array.fill(nRel)(Array.fill(dim * dim)(((r.nextFloat() * 2f) - 1f) * 0.3f))
  }

  private def bilin(eh: Array[Float], m: Array[Float], et: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < dim) {
      var rowDot = 0.0; var j = 0
      val base = i * dim
      while (j < dim) { rowDot += m(base + j) * et(j); j += 1 }
      s += eh(i) * rowDot
      i += 1
    }
    s
  }

  def score(h: Int, r: Int, t: Int): Double = bilin(ent(h), core(r), ent(t))

  /** Gradient accumulators of the last step, reused across steps. */
  private val gh = new Array[Double](dim)
  private val gt = new Array[Double](dim)

  /** Raw-gradient step with L2 decay: g = −1 ascends the score, +1 descends. */
  private def marginStep(h: Int, r: Int, t: Int, g: Double, lr: Double): Unit = {
    val eh = ent(h); val et = ent(t); val m = core(r)
    // ∂s/∂h_i = Σ_j M_ij t_j ; ∂s/∂t_j = Σ_i h_i M_ij ; ∂s/∂M_ij = h_i t_j
    java.util.Arrays.fill(gt, 0.0)
    var i = 0
    while (i < dim) {
      val base = i * dim
      var ghi = 0.0
      var j = 0
      while (j < dim) {
        ghi += m(base + j) * et(j)
        gt(j) += eh(i) * m(base + j)
        m(base + j) -= (lr * (g * eh(i) * et(j) + l2 * m(base + j))).toFloat
        j += 1
      }
      gh(i) = ghi
      i += 1
    }
    i = 0
    while (i < dim) {
      eh(i) -= (lr * (g * gh(i) + l2 * eh(i))).toFloat
      et(i) -= (lr * (g * gt(i) + l2 * et(i))).toFloat
      i += 1
    }
    // Norm caps play the stabilizing role of TuckER's batch norm.
    normalizeIfLong(eh); normalizeIfLong(et)
  }

  /** Margin ranking loss, like the translational models. */
  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val loss = margin - score(h, r, t) + score(h2, r, t2)
    if (loss > 0) {
      marginStep(h, r, t, -1.0, lr)   // ascend positive score
      marginStep(h2, r, t2, 1.0, lr)  // descend negative score
      loss
    } else 0.0
  }

  override def scoreTails(h: Int, r: Int): Array[Double] = {
    val m = core(r)
    val eh = ent(h)
    // q_j = Σ_i h_i M_ij
    val q = new Array[Float](dim)
    var i = 0
    while (i < dim) {
      val base = i * dim
      var j = 0
      while (j < dim) { q(j) += (eh(i) * m(base + j)).toFloat; j += 1 }
      i += 1
    }
    val out = new Array[Double](nEnt)
    var t = 0
    while (t < nEnt) { out(t) = dot(q, ent(t)); t += 1 }
    out
  }
}
