package repro.kge

import VecOps._

/** TransE [Bordes et al. 2013] with L1 energy and margin ranking loss.
  * score(h,r,t) = −‖h + r − t‖₁; entity embeddings renormalized to the
  * unit ball after each touched update.
  */
final class TransE(val nEnt: Int, val nRel: Int, val dim: Int, seed: Long = 1L)
    extends KgeModel {
  val name = "TransE"
  val ent: Array[Array[Float]] = randArray(nEnt, dim, 6f / math.sqrt(dim).toFloat, seed)
  val rel: Array[Array[Float]] = randArray(nRel, dim, 6f / math.sqrt(dim).toFloat, seed + 1)
  ent.foreach(normalize); rel.foreach(normalize)

  def score(h: Int, r: Int, t: Int): Double = l1Score(ent(h), rel(r), ent(t))

  /** Margin step on E(pos) − E(neg); both pushes before any renormalization. */
  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val loss = margin - score(h, r, t) + score(h2, r, t2)
    if (loss > 0) {
      l1Push(ent(h), rel(r), ent(t), 1f, lr)
      l1Push(ent(h2), rel(r), ent(t2), -1f, lr)
      normalizeIfLong(ent(h)); normalizeIfLong(ent(t))
      normalizeIfLong(ent(h2)); normalizeIfLong(ent(t2))
      loss
    } else 0.0
  }

  override def scoreTails(h: Int, r: Int): Array[Double] = {
    val eh = ent(h); val er = rel(r)
    val q = new Array[Float](dim)
    var i = 0; while (i < dim) { q(i) = eh(i) + er(i); i += 1 }
    val out = new Array[Double](nEnt)
    var t = 0
    while (t < nEnt) {
      val et = ent(t); var s = 0.0; var j = 0
      while (j < dim) { s += math.abs(q(j) - et(j)); j += 1 }
      out(t) = -s; t += 1
    }
    out
  }
}

/** TransH [Wang et al. 2014]: entities projected onto a relation-specific
  * hyperplane (normal w_r) before the translation d_r.
  */
final class TransH(val nEnt: Int, val nRel: Int, val dim: Int, seed: Long = 2L)
    extends KgeModel {
  val name = "TransH"
  val ent: Array[Array[Float]] = randArray(nEnt, dim, 6f / math.sqrt(dim).toFloat, seed)
  val d: Array[Array[Float]] = randArray(nRel, dim, 6f / math.sqrt(dim).toFloat, seed + 1)
  val w: Array[Array[Float]] = randArray(nRel, dim, 1f, seed + 2)
  ent.foreach(normalize); d.foreach(normalize); w.foreach(normalize)

  private def diff(h: Int, r: Int, t: Int): Array[Float] = {
    val eh = ent(h); val et = ent(t); val wr = w(r); val dr = d(r)
    val wh = dot(wr, eh); val wt = dot(wr, et)
    val out = new Array[Float](dim)
    var i = 0
    while (i < dim) {
      out(i) = ((eh(i) - wh * wr(i)) + dr(i) - (et(i) - wt * wr(i))).toFloat
      i += 1
    }
    out
  }

  def score(h: Int, r: Int, t: Int): Double = {
    val df = diff(h, r, t)
    var s = 0.0; var i = 0
    while (i < dim) { s += math.abs(df(i)); i += 1 }
    -s
  }

  /** All tails at once: the head side (h − (w·h)w) + d is the same double
    * for every tail, so each entry equals `score(h, r, t)` bit for bit.
    */
  override def scoreTails(h: Int, r: Int): Array[Double] = {
    val eh = ent(h); val wr = w(r); val dr = d(r)
    val wh = dot(wr, eh)
    val q = new Array[Double](dim)
    var i = 0; while (i < dim) { q(i) = (eh(i) - wh * wr(i)) + dr(i); i += 1 }
    val out = new Array[Double](nEnt)
    var t = 0
    while (t < nEnt) {
      val et = ent(t); val wt = dot(wr, et)
      var s = 0.0; i = 0
      while (i < dim) { s += math.abs((q(i) - (et(i) - wt * wr(i))).toFloat); i += 1 }
      out(t) = -s; t += 1
    }
    out
  }

  private def push(h: Int, r: Int, t: Int, dir: Float, lr: Double): Unit = {
    val eh = ent(h); val et = ent(t); val wr = w(r); val dr = d(r)
    val df = diff(h, r, t)
    val sg = new Array[Float](dim)
    var i = 0; while (i < dim) { sg(i) = math.signum(df(i)); i += 1 }
    val ws = dot(wr, sg); val wh = dot(wr, eh); val wt = dot(wr, et)
    val step = (lr * dir).toFloat
    i = 0
    while (i < dim) {
      // ∂E/∂h = s − (w·s)w ; ∂E/∂t = −that ; ∂E/∂d = s
      val gh = (sg(i) - ws * wr(i)).toFloat
      eh(i) -= step * gh
      et(i) += step * gh
      dr(i) -= step * sg(i)
      // ∂E/∂w = −[(s·w)h + (w·h)s] + [(s·w)t + (w·t)s]
      val gw = (-(ws * eh(i) + wh * sg(i)) + (ws * et(i) + wt * sg(i))).toFloat
      wr(i) -= step * gw
      i += 1
    }
    normalize(wr)
  }

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val loss = margin - score(h, r, t) + score(h2, r, t2)
    if (loss > 0) {
      push(h, r, t, 1f, lr)
      push(h2, r, t2, -1f, lr)
      normalizeIfLong(ent(h)); normalizeIfLong(ent(t))
      normalizeIfLong(ent(h2)); normalizeIfLong(ent(t2))
      loss
    } else 0.0
  }
}

/** TransD [Ji et al. 2015]: dynamic projection via entity- and
  * relation-projection vectors, h⊥ = h + (h_p·h) r_p.
  */
final class TransD(val nEnt: Int, val nRel: Int, val dim: Int, seed: Long = 3L)
    extends KgeModel {
  val name = "TransD"
  val ent: Array[Array[Float]] = randArray(nEnt, dim, 6f / math.sqrt(dim).toFloat, seed)
  val entP: Array[Array[Float]] = randArray(nEnt, dim, 0.1f, seed + 1)
  val rel: Array[Array[Float]] = randArray(nRel, dim, 6f / math.sqrt(dim).toFloat, seed + 2)
  val relP: Array[Array[Float]] = randArray(nRel, dim, 0.1f, seed + 3)
  ent.foreach(normalize); rel.foreach(normalize)

  private def diff(h: Int, r: Int, t: Int): Array[Float] = {
    val eh = ent(h); val et = ent(t); val er = rel(r); val rp = relP(r)
    val ph = dot(entP(h), eh); val pt = dot(entP(t), et)
    val out = new Array[Float](dim)
    var i = 0
    while (i < dim) {
      out(i) = ((eh(i) + ph * rp(i)) + er(i) - (et(i) + pt * rp(i))).toFloat
      i += 1
    }
    out
  }

  /** −‖(h + (h_p·h)r_p) + r − (t + (t_p·t)r_p)‖₁, each coordinate rounded
    * to a float.
    */
  def score(h: Int, r: Int, t: Int): Double = {
    val eh = ent(h); val et = ent(t); val er = rel(r); val rp = relP(r)
    val ph = dot(entP(h), eh); val pt = dot(entP(t), et)
    var s = 0.0; var i = 0
    while (i < dim) {
      s += math.abs(((eh(i) + ph * rp(i)) + er(i) - (et(i) + pt * rp(i))).toFloat)
      i += 1
    }
    -s
  }

  /** All tails at once: the head side (h + (h_p·h)r_p) + r is the same
    * double for every tail, so each entry equals `score(h, r, t)` bit for
    * bit.
    */
  override def scoreTails(h: Int, r: Int): Array[Double] = {
    val eh = ent(h); val er = rel(r); val rp = relP(r)
    val ph = dot(entP(h), eh)
    val q = new Array[Double](dim)
    var i = 0; while (i < dim) { q(i) = (eh(i) + ph * rp(i)) + er(i); i += 1 }
    val out = new Array[Double](nEnt)
    var t = 0
    while (t < nEnt) {
      val et = ent(t); val pt = dot(entP(t), et)
      var s = 0.0; i = 0
      while (i < dim) { s += math.abs((q(i) - (et(i) + pt * rp(i))).toFloat); i += 1 }
      out(t) = -s; t += 1
    }
    out
  }

  private def push(h: Int, r: Int, t: Int, dir: Float, lr: Double): Unit = {
    val eh = ent(h); val et = ent(t); val er = rel(r); val rp = relP(r)
    val hp = entP(h); val tp = entP(t)
    val df = diff(h, r, t)
    val sg = new Array[Float](dim)
    var i = 0; while (i < dim) { sg(i) = math.signum(df(i)); i += 1 }
    val rs = dot(rp, sg)
    val ph = dot(hp, eh); val pt = dot(tp, et)
    val step = (lr * dir).toFloat
    i = 0
    while (i < dim) {
      eh(i) -= step * (sg(i) + rs * hp(i)).toFloat          // ∂E/∂h = s + (r_p·s) h_p
      hp(i) -= step * (rs * eh(i)).toFloat                  // ∂E/∂h_p = (r_p·s) h
      et(i) += step * (sg(i) + rs * tp(i)).toFloat
      tp(i) += step * (rs * et(i)).toFloat
      er(i) -= step * sg(i)
      rp(i) -= step * ((ph - pt) * sg(i)).toFloat           // ∂E/∂r_p = (h_p·h − t_p·t) s
      i += 1
    }
  }

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val loss = margin - score(h, r, t) + score(h2, r, t2)
    if (loss > 0) {
      push(h, r, t, 1f, lr)
      push(h2, r, t2, -1f, lr)
      normalizeIfLong(ent(h)); normalizeIfLong(ent(t))
      normalizeIfLong(ent(h2)); normalizeIfLong(ent(t2))
      // Projection vectors must stay bounded or the dynamic projection
      // diverges to NaN (h⊥ grows without limit).
      normalizeIfLong(entP(h)); normalizeIfLong(entP(t))
      normalizeIfLong(entP(h2)); normalizeIfLong(entP(t2))
      normalizeIfLong(relP(r))
      loss
    } else 0.0
  }
}
