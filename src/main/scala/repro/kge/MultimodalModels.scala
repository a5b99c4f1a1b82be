package repro.kge

import VecOps._

/** Shared machinery of the multimodal KGC substitutes.
  *
  * Two scoring experts are combined:
  *  - a structural TransE expert over free entity embeddings, and
  *  - a **visual expert**: the entity's image feature through a frozen
  *    random projection (the analog of RSME/MKGformer's frozen
  *    pretrained visual encoders), plus a *trained* per-relation
  *    translation, scored against the shared tail embeddings.
  *
  * The visual query v(h) + r_v is identical for products that look alike
  * (same category/brand in the synthetic world), so tail embeddings are
  * pulled toward a consensus of all same-look heads — signal a free
  * per-entity embedding cannot absorb, which is exactly why the fusion
  * generalizes better than structure alone (the paper's Table III
  * multimodal gains).
  */
abstract class MultimodalBase(val nEnt: Int, val nRel: Int, val dim: Int,
                              entImage: Array[Array[Float]], seed: Long) extends KgeModel {
  protected val imgDim: Int =
    entImage.collectFirst { case v if v != null => v.length }.getOrElse(1)

  val ent: Array[Array[Float]] = randArray(nEnt, dim, 6f / math.sqrt(dim).toFloat, seed)
  val rel: Array[Array[Float]] = randArray(nRel, dim, 6f / math.sqrt(dim).toFloat, seed + 1)
  /** Visual-space per-relation translations (trained). */
  val relV: Array[Array[Float]] = randArray(nRel, dim, 0.1f, seed + 3)
  /** Visual-expert tail embeddings — a separate table, so the visual
    * expert is an independent scorer (late fusion): its training cannot
    * degrade the structural expert.
    */
  val visTail: Array[Array[Float]] = randArray(nEnt, dim, 6f / math.sqrt(dim).toFloat, seed + 4)
  ent.foreach(normalize); rel.foreach(normalize); visTail.foreach(normalize)

  /** Frozen visual representations: unit-normalized random projection of
    * the image features; null for single-modal entities.
    */
  val visEnt: Array[Array[Float]] = {
    val r = new java.util.Random(seed + 2)
    val proj = Array.fill(imgDim * dim)((r.nextFloat() * 2f) - 1f)
    entImage.map { x =>
      if (x == null) null
      else {
        val out = new Array[Float](dim)
        var i = 0
        while (i < imgDim) {
          val xi = x(i)
          val base = i * dim
          var j = 0
          while (j < dim) { out(j) += xi * proj(base + j); j += 1 }
          i += 1
        }
        normalize(out)
        out
      }
    }
  }

  protected def hasImage(e: Int): Boolean = visEnt(e) != null

  protected def structScore(h: Int, r: Int, t: Int): Double = l1Score(ent(h), rel(r), ent(t))

  /** Visual-expert energy: −‖v(h) + r_v − e_t‖₁ (0 for image-less heads —
    * the expert abstains).
    */
  protected def visScore(h: Int, r: Int, t: Int): Double = {
    val v = visEnt(h)
    if (v == null) 0.0 else l1Score(v, relV(r), visTail(t))
  }

  /** Unlike TransE's update, each push renormalizes its own h and t. */
  protected def pushStruct(h: Int, r: Int, t: Int, dir: Float, lr: Double): Unit = {
    l1Push(ent(h), rel(r), ent(t), dir, lr)
    normalizeIfLong(ent(h)); normalizeIfLong(ent(t))
  }

  /** Visual-expert gradient: r_v and the visual tail table move; v frozen. */
  protected def pushVis(h: Int, r: Int, t: Int, dir: Float, lr: Double): Unit = {
    val v = visEnt(h)
    if (v != null) {
      val rv = relV(r); val et = visTail(t)
      val step = (lr * dir).toFloat
      var j = 0
      while (j < dim) {
        val sg = math.signum(v(j) + rv(j) - et(j))
        rv(j) -= step * sg; et(j) += step * sg
        j += 1
      }
      normalizeIfLong(et)
    }
  }

  /** The model's score from the two experts' scores of (h, r, t). */
  protected def fuse(h: Int, r: Int, t: Int, struct: Double, vis: Double): Double

  final def score(h: Int, r: Int, t: Int): Double =
    fuse(h, r, t, structScore(h, r, t), visScore(h, r, t))

  /** All tails at once: the queries h + r and v(h) + r_v are the float
    * sums `l1Score` forms per coordinate, so each entry equals
    * `score(h, r, t)` bit for bit.
    */
  override def scoreTails(h: Int, r: Int): Array[Double] = {
    val eh = ent(h); val er = rel(r); val v = visEnt(h); val rv = relV(r)
    val q = new Array[Float](dim)
    val qv = if (v == null) null else new Array[Float](dim)
    var i = 0
    while (i < dim) {
      q(i) = eh(i) + er(i)
      if (qv != null) qv(i) = v(i) + rv(i)
      i += 1
    }
    val out = new Array[Double](nEnt)
    var t = 0
    while (t < nEnt) {
      val et = ent(t)
      var s = 0.0; i = 0
      while (i < dim) { s += math.abs(q(i) - et(i)); i += 1 }
      var sv = 0.0
      if (qv != null) {
        val vt = visTail(t)
        i = 0
        while (i < dim) { sv += math.abs(qv(i) - vt(i)); i += 1 }
        sv = -sv
      }
      out(t) = fuse(h, r, t, -s, sv)
      t += 1
    }
    out
  }

  /** Independent per-expert margin training on the experts' scores of the
    * positive (s, v) and the negative (s2, v2): the structural expert
    * trains exactly like TransE; the visual expert trains on its own
    * margin violations (only when the head is multimodal). The structural
    * push leaves what the visual expert reads unchanged.
    */
  protected def expertUpdate(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double,
                             margin: Double, s: Double, s2: Double,
                             v: Double, v2: Double): Double = {
    var loss = 0.0
    val ls = margin - s + s2
    if (ls > 0) { pushStruct(h, r, t, 1f, lr); pushStruct(h2, r, t2, -1f, lr); loss += ls }
    if (hasImage(h)) {
      val lv = margin - v + v2
      if (lv > 0) { pushVis(h, r, t, 1f, lr); pushVis(h2, r, t2, -1f, lr); loss += lv }
    }
    loss
  }

  /** Scores each expert once on the positive and the negative, then trains both. */
  protected def expertUpdate(h: Int, r: Int, t: Int, h2: Int, t2: Int,
                             lr: Double, margin: Double): Double =
    expertUpdate(h, r, t, h2, t2, lr, margin, structScore(h, r, t), structScore(h2, r, t2),
      visScore(h, r, t), visScore(h2, r, t2))
}

/** TransAE substitute: fixed-weight combination of the structural and
  * visual experts (the auto-encoder fusion of visual features).
  */
final class TransAeLike(nEnt: Int, nRel: Int, dim: Int, entImage: Array[Array[Float]],
                        val visWeight: Double = 0.6, seed: Long = 10L)
    extends MultimodalBase(nEnt, nRel, dim, entImage, seed) {
  val name = "TransAE"

  protected def fuse(h: Int, r: Int, t: Int, struct: Double, vis: Double): Double =
    struct + visWeight * vis

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double =
    expertUpdate(h, r, t, h2, t2, lr, margin)
}

/** RSME substitute: the filter/forget gate — a learned per-relation
  * weight on the visual expert.
  */
final class RsmeLike(nEnt: Int, nRel: Int, dim: Int, entImage: Array[Array[Float]],
                     seed: Long = 11L)
    extends MultimodalBase(nEnt, nRel, dim, entImage, seed) {
  val name = "RSME"
  /** Pre-sigmoid gate parameter per relation. */
  val gateParam: Array[Float] = Array.fill(nRel)(0f)

  private def gate(r: Int): Double = sigmoid(gateParam(r))

  protected def fuse(h: Int, r: Int, t: Int, struct: Double, vis: Double): Double =
    struct + gate(r) * vis

  /** Each expert scores the positive and the negative once; the gate step
    * changes no expert parameter, so the expert step reuses the scores.
    */
  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val s = structScore(h, r, t); val s2 = structScore(h2, r, t2)
    val v = visScore(h, r, t); val v2 = visScore(h2, r, t2)
    // Gate gradient on the combined-score margin (the filter-gate learning).
    val lossC = margin - fuse(h, r, t, s, v) + fuse(h2, r, t2, s2, v2)
    if (lossC > 0 && hasImage(h)) {
      val g = gate(r)
      val dg = -v + v2
      gateParam(r) -= (0.01 * lr * dg * g * (1 - g)).toFloat
    }
    expertUpdate(h, r, t, h2, t2, lr, margin, s, s2, v, v2)
  }
}

/** MKGformer substitute: multi-level fusion — structural, visual, and a
  * textual expert (per-relation n-gram overlap kernel over the entity
  * labels) in one score. The text channel smooths the tail of the
  * ranking (its MR advantage); structure + vision carry Hits.
  */
final class MkgformerLike(nEnt: Int, nRel: Int, dim: Int,
                          entImage: Array[Array[Float]],
                          entText: Array[Array[Float]],
                          val visWeight: Double = 0.6,
                          val textWeight: Double = 0.5, seed: Long = 12L)
    extends MultimodalBase(nEnt, nRel, dim, entImage, seed) {
  val name = "MKGformer"
  /** Per-relation text-overlap kernel weights (trained). */
  val kernel: Array[Array[Float]] = Array.fill(nRel)(Array.fill(entText(0).length)(0.5f))
  /** Nonzero text positions per entity; the kernels run over the head's,
    * with the sums and weights of the dense loops (`VecOps.nonzeros`).
    */
  private val textNz: Array[Array[Int]] = entText.map(nonzeros)

  private def textScore(r: Int, h: Int, t: Int): Double =
    sparseKernel(kernel(r), entText(h), entText(t), textNz(h))

  private def pushKernel(r: Int, h: Int, t: Int, dir: Float, lr: Double): Unit = {
    val w = kernel(r); val a = entText(h); val b = entText(t); val nz = textNz(h)
    val step = (lr * dir).toFloat
    var k = 0
    while (k < nz.length) { val i = nz(k); w(i) += step * a(i) * b(i); k += 1 }
  }

  protected def fuse(h: Int, r: Int, t: Int, struct: Double, vis: Double): Double =
    struct + visWeight * vis + textWeight * textScore(r, h, t)

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val lt = margin - textWeight * (textScore(r, h, t) - textScore(r, h2, t2))
    if (lt > 0) { pushKernel(r, h, t, 1f, lr); pushKernel(r, h2, t2, -1f, lr) }
    expertUpdate(h, r, t, h2, t2, lr, margin)
  }
}
