package repro.kge

import VecOps._

/** Shared machinery of text-encoder-based KGC substitutes (KG-BERT,
  * StAR, GenKGC in the paper's Tables III/IV).
  *
  * The stand-in "text encoder" is the dataset's fixed hashed text
  * feature φ(e) (KgeData.textFeature: word unigrams + char trigrams).
  * Two learned components score a triple:
  *
  *  - a **per-relation overlap kernel** (the cross-attention stand-in):
  *    kernelScore(h,r,t) = Σ_i w_r(i) φ(h)_i φ(t)_i — the relation
  *    learns which n-gram dimensions its tail vocabulary lives on;
  *  - a **per-entity tail bias** — the "is this a plausible tail at all"
  *    signal a PLM picks up from training pairs; without it, head-type
  *    entities crowd every ranking.
  *
  * Hashing collisions bound how precisely text can pin an entity, so
  * these models land exactly in the paper's signature regime: smooth
  * rankings (good MR), modest exact-hit rates (low Hits@1).
  */
abstract class TextKgeBase(val nEnt: Int, val nRel: Int,
                           entText: Array[Array[Float]]) extends KgeModel {
  protected val f: Int = entText(0).length

  /** Per-relation n-gram attention weights. */
  val kernel: Array[Array[Float]] = Array.fill(nRel)(Array.fill(f)(1f))
  /** Per-entity tail bias, clipped to ±10. */
  val bias: Array[Float] = new Array[Float](nEnt)
  /** Relation-conditioned tail bias — the P(t | r) prior a fine-tuned PLM
    * absorbs from its training pairs.
    */
  val relBias: Array[Array[Float]] = Array.fill(nRel)(new Array[Float](nEnt))

  /** Kernel scale: overlap values live in [0, ~0.5]; the scale makes the
    * learned kernel competitive with the bias range.
    */
  protected val kernelScale: Double = 4.0

  /** Nonzero feature positions per entity; the kernels run over the
    * head's, with the sums and weights of dense loops over all `f`
    * positions (`VecOps.nonzeros`).
    */
  private val textNz: Array[Array[Int]] = entText.map(nonzeros)

  protected def kernelScore(r: Int, h: Int, t: Int): Double =
    kernelScale * sparseKernel(kernel(r), entText(h), entText(t), textNz(h))

  /** Where a_i = 0 the dense step would add ±0 to a weight already in
    * [0, 3], so only the head's nonzero positions move.
    */
  protected def pushKernel(r: Int, h: Int, t: Int, dir: Float, lr: Double): Unit = {
    val w = kernel(r); val a = entText(h); val b = entText(t); val nz = textNz(h)
    val step = (lr * dir * kernelScale).toFloat
    var k = 0
    while (k < nz.length) {
      val i = nz(k)
      var x = w(i) + step * a(i) * b(i)
      // Clip: unbounded attention weights amplify hash collisions.
      if (x > 3f) x = 3f else if (x < 0f) x = 0f
      w(i) = x
      k += 1
    }
  }

  protected def pushBias(r: Int, t: Int, dir: Float, lr: Double): Unit = {
    bias(t) += (3f * lr * dir).toFloat
    if (bias(t) > 10f) bias(t) = 10f
    if (bias(t) < -10f) bias(t) = -10f
    val rb = relBias(r)
    rb(t) += (2f * lr * dir).toFloat
    if (rb(t) > 8f) rb(t) = 8f
    if (rb(t) < -8f) rb(t) = -8f
  }

  protected def biasScore(r: Int, t: Int): Double = bias(t) + relBias(r)(t)

  /** A generative/matching text model never proposes the head itself. */
  override def scoreTails(h: Int, r: Int): Array[Double] = {
    val out = super.scoreTails(h, r)
    out(h) = -1e9
    out
  }
}

/** KG-BERT substitute: text-only scoring (kernel + tail bias). */
class KgBertLike(nEnt: Int, nRel: Int, entText: Array[Array[Float]])
    extends TextKgeBase(nEnt, nRel, entText) {
  val name = "KG-BERT"

  def score(h: Int, r: Int, t: Int): Double = kernelScore(r, h, t) + biasScore(r, t)

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val loss = margin - score(h, r, t) + score(h2, r, t2)
    if (loss > 0) {
      pushKernel(r, h, t, 1f, lr); pushKernel(r, h2, t2, -1f, lr)
      pushBias(r, t, 1f, lr); pushBias(r, t2, -1f, lr)
      loss
    } else 0.0
  }
}

/** StAR substitute: structure-augmented text — the text score plus a
  * jointly trained structural TransE component.
  */
final class StarLike(nEnt: Int, nRel: Int, dim: Int, entText: Array[Array[Float]],
                     val structWeight: Double = 0.5, seed: Long = 8L)
    extends TextKgeBase(nEnt, nRel, entText) {
  val name = "StAR"
  val ent: Array[Array[Float]] = randArray(nEnt, dim, 6f / math.sqrt(dim).toFloat, seed + 2)
  val relS: Array[Array[Float]] = randArray(nRel, dim, 6f / math.sqrt(dim).toFloat, seed + 3)
  ent.foreach(normalize); relS.foreach(normalize)

  def score(h: Int, r: Int, t: Int): Double =
    kernelScore(r, h, t) + biasScore(r, t) + structWeight * l1Score(ent(h), relS(r), ent(t))

  /** Renormalizes its own h and t, as the multimodal structural expert does. */
  private def pushStruct(h: Int, r: Int, t: Int, dir: Float, lr: Double): Unit = {
    l1Push(ent(h), relS(r), ent(t), dir, lr)
    normalizeIfLong(ent(h)); normalizeIfLong(ent(t))
  }

  def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, margin: Double): Double = {
    val loss = margin - score(h, r, t) + score(h2, r, t2)
    if (loss > 0) {
      pushKernel(r, h, t, 1f, lr); pushKernel(r, h2, t2, -1f, lr)
      pushBias(r, t, 1f, lr); pushBias(r, t2, -1f, lr)
      pushStruct(h, r, t, 1f, lr); pushStruct(h2, r, t2, -1f, lr)
      loss
    } else 0.0
  }
}

/** GenKGC substitute: KG-BERT's scorer, but generative decoding ranks
  * only a beam of candidates; entities outside the beam share a flat tail
  * rank. The paper reports Hits@K only for GenKGC — MR/MRR are omitted.
  */
final class GenKgcLike(nEnt: Int, nRel: Int, entText: Array[Array[Float]], val beam: Int = 16)
    extends KgBertLike(nEnt, nRel, entText) {
  override val name = "GenKGC"

  /** Beyond the beam the decoder never generates the entity: flat rank. */
  override def rankTransform(rank: Int): Int =
    if (rank <= beam) rank else nEnt / 2
}
