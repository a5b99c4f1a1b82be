package repro.kge

import repro.SparkSpec

/** Unit tests of the KGE machinery on hand-built toy graphs. */
object ToyData {

  /** A deterministic many-to-one toy KG: 40 heads, 2 relations; relation
    * 0 maps head i to tail 40 + (i % 4); relation 1 maps head i to
    * 44 + (i % 2). Tails are entities 40..45. Train on all but a holdout.
    */
  def build(textDim: Int = 32, withImages: Boolean = false): KgeDataset = {
    val nHeads = 40
    val entIds = (0 until nHeads).map(i => s"h$i").toArray ++
      (0 until 6).map(i => s"t$i").toArray
    val relIds = Array("r0", "r1")
    val all = (0 until nHeads).flatMap { i =>
      Seq((i, 0, 40 + (i % 4)), (i, 1, 44 + (i % 2)))
    }
    // Holdout: the r0 triple of heads 36..39 (their r1 triple stays in train).
    val (test, train) = all.partition { case (h, r, _) => h >= 36 && r == 0 }
    val dev = test.take(2)
    def unzip3(xs: Seq[(Int, Int, Int)]) =
      (xs.map(_._1).toArray, xs.map(_._2).toArray, xs.map(_._3).toArray)
    val (trH, trR, trT) = unzip3(train)
    val (teH, teR, teT) = unzip3(test)
    val (dvH, dvR, dvT) = unzip3(dev)
    val entText = entIds.map(id => KgeData.textFeature(id, textDim))
    val entImage: Array[Array[Float]] =
      if (!withImages) entIds.map(_ => null: Array[Float])
      else entIds.zipWithIndex.map { case (_, i) =>
        if (i < nHeads) {
          // image encodes the r0 target group (i % 4) — visual signal
          val v = new Array[Float](8)
          v(i % 4) = 1f
          val rr = new java.util.Random(i)
          (0 until 8).foreach(j => v(j) += 0.1f * rr.nextGaussian().toFloat)
          v
        } else null
      }
    KgeDataset("toy", entIds, relIds, trH, trR, trT, dvH, dvR, dvT, teH, teR, teT,
      entText, entImage, KnownTails(relIds.length, Seq((trH, trR, trT), (dvH, dvR, dvT),
        (teH, teR, teT))))
  }
}

class KgeSpec extends SparkSpec {
  val cfg = TrainConfig(epochs = 60, lr = 0.05, margin = 2.0, negPerPos = 2, seed = 5L)

  def trainAndEval(model: KgeModel, data: KgeDataset): Evaluator.Metrics = {
    Trainer.train(model, data, cfg)
    Evaluator.evaluate(spark, model, data)
  }

  lazy val toy = ToyData.build()
  lazy val toyImg = ToyData.build(withImages = true)

  test("textFeature is deterministic, unit-norm, and label-sensitive") {
    val a = KgeData.textFeature("running shoes", 64)
    val b = KgeData.textFeature("running shoes", 64)
    val c = KgeData.textFeature("laptop stand", 64)
    assert(a.toSeq === b.toSeq)
    assert(math.abs(VecOps.dot(a, a) - 1.0) < 1e-5)
    assert(VecOps.dot(a, c) < 0.9)
  }

  test("similar labels have closer text features than dissimilar ones") {
    val a = KgeData.textFeature("running shoes", 64)
    val b = KgeData.textFeature("running shoe", 64)
    val c = KgeData.textFeature("quantum pipeline", 64)
    assert(VecOps.dot(a, b) > VecOps.dot(a, c))
  }

  test("toy dataset is well-formed") {
    assert(toy.nEnt === 46 && toy.nRel === 2)
    assert(toy.nTrain === 76)
    assert(toy.testH.length === 4)
    assert(toy.knownTails(0, 0).toSeq === Seq(40))
  }

  test("TransE learns the toy mapping (Hits@1 ~ 1 via co-occurring relation)") {
    val m = trainAndEval(new TransE(toy.nEnt, toy.nRel, 16), toy)
    // r1 groups overlap r0 groups only partially: the model can at least
    // narrow r0 tails down dramatically.
    assert(m.hits10 > 0.9, s"$m")
    assert(m.mrr > 0.3, s"$m")
  }

  test("TransE update reduces margin violation for a repeated pair") {
    val m = new TransE(toy.nEnt, toy.nRel, 16)
    val before = m.score(0, 0, 40) - m.score(0, 0, 43)
    (0 until 50).foreach(_ => m.update(0, 0, 40, 0, 43, 0.05, 2.0))
    val after = m.score(0, 0, 40) - m.score(0, 0, 43)
    assert(after > before)
    assert(m.score(0, 0, 40) > m.score(0, 0, 43))
  }

  test("TransH learns the toy mapping") {
    val m = trainAndEval(new TransH(toy.nEnt, toy.nRel, 16), toy)
    assert(m.hits10 > 0.9, s"$m")
  }

  test("TransD learns the toy mapping") {
    val m = trainAndEval(new TransD(toy.nEnt, toy.nRel, 16), toy)
    assert(m.hits10 > 0.9, s"$m")
  }

  test("DistMult update moves scores in the right direction") {
    val m = new DistMult(toy.nEnt, toy.nRel, 16)
    val before = m.score(0, 0, 40) - m.score(0, 0, 43)
    (0 until 80).foreach(_ => m.update(0, 0, 40, 0, 43, 0.1, 0.0))
    assert(m.score(0, 0, 40) - m.score(0, 0, 43) > before)
  }

  test("ComplEx update moves scores in the right direction") {
    val m = new ComplEx(toy.nEnt, toy.nRel, 16)
    (0 until 80).foreach(_ => m.update(0, 0, 40, 0, 43, 0.1, 0.0))
    assert(m.score(0, 0, 40) > m.score(0, 0, 43))
  }

  test("ComplEx can represent asymmetric relations (DistMult cannot)") {
    val dm = new DistMult(10, 1, 8)
    assert(math.abs(dm.score(1, 0, 2) - dm.score(2, 0, 1)) < 1e-6,
      "DistMult is symmetric by construction")
    val cx = new ComplEx(10, 1, 8, seed = 99L)
    assert(math.abs(cx.score(1, 0, 2) - cx.score(2, 0, 1)) > 1e-8,
      "ComplEx scores need not be symmetric")
  }

  test("TuckER learns the toy mapping with top Hits") {
    val m = trainAndEval(new TuckER(toy.nEnt, toy.nRel, 12),
      toy)
    assert(m.hits10 > 0.9, s"$m")
    assert(m.hits1 > 0.2, s"$m")
  }

  test("TuckER scoreTails agrees with score") {
    val m = new TuckER(toy.nEnt, toy.nRel, 8)
    val all = m.scoreTails(3, 1)
    (0 until toy.nEnt by 7).foreach { t =>
      assert(math.abs(all(t) - m.score(3, 1, t)) < 1e-4)
    }
  }

  test("TransE scoreTails agrees with score") {
    val m = new TransE(toy.nEnt, toy.nRel, 16)
    val all = m.scoreTails(5, 0)
    (0 until toy.nEnt).foreach { t =>
      assert(math.abs(all(t) - m.score(5, 0, t)) < 1e-4)
    }
  }

  test("KG-BERT-like model trains and produces smooth scores") {
    val m = new KgBertLike(toy.nEnt, toy.nRel, toy.entText)
    Trainer.train(m, toy, cfg)
    val met = Evaluator.evaluate(spark, m, toy)
    // text of toy entity ids is uninformative → weak Hits, but MR must be
    // far from worst-case (nEnt/2 = 23 for random)
    assert(met.mr < toy.nEnt, s"$met")
  }

  test("StAR-like model beats KG-BERT-like on Hits (structure helps)") {
    val kb = new KgBertLike(toy.nEnt, toy.nRel, toy.entText)
    val st = new StarLike(toy.nEnt, toy.nRel, 16, toy.entText, seed = 71L)
    Trainer.train(kb, toy, cfg); Trainer.train(st, toy, cfg)
    val mk = Evaluator.evaluate(spark, kb, toy)
    val ms = Evaluator.evaluate(spark, st, toy)
    assert(ms.hits10 >= mk.hits10, s"star=$ms kgbert=$mk")
  }

  test("GenKGC-like rank transform flattens beyond the beam") {
    val m = new GenKgcLike(toy.nEnt, toy.nRel, toy.entText, beam = 5)
    assert(m.rankTransform(3) === 3)
    assert(m.rankTransform(6) === toy.nEnt / 2)
  }

  test("multimodal models exploit image features (vs structure-only TransE)") {
    val te = trainAndEval(new TransE(toyImg.nEnt, toyImg.nRel, 16), toyImg)
    val ta = trainAndEval(new TransAeLike(toyImg.nEnt, toyImg.nRel, 16, toyImg.entImage), toyImg)
    // Toy images directly encode the r0 target group; fused model should
    // be at least as good on MRR.
    assert(ta.mrr >= te.mrr * 0.8, s"transae=$ta transe=$te")
  }

  test("RSME gate stays in [0,1] and model trains") {
    val m = new RsmeLike(toyImg.nEnt, toyImg.nRel, 16, toyImg.entImage)
    Trainer.train(m, toyImg, cfg.copy(epochs = 20))
    m.gateParam.foreach(g => assert(!g.isNaN))
    val met = Evaluator.evaluate(spark, m, toyImg)
    assert(met.hits10 > 0.5, s"$met")
  }

  test("MKGformer-like trains with all three channels") {
    val m = new MkgformerLike(toyImg.nEnt, toyImg.nRel, 16, toyImg.entImage, toyImg.entText)
    Trainer.train(m, toyImg, cfg.copy(epochs = 20))
    val met = Evaluator.evaluate(spark, m, toyImg)
    assert(met.hits10 > 0.5, s"$met")
  }

  test("rankOf implements the filtered protocol") {
    // Craft a model with fixed scores.
    val data = toy
    val m = new KgeModel {
      val name = "fixed"; val nEnt = data.nEnt; val nRel = data.nRel
      def score(h: Int, r: Int, t: Int): Double = -t  // entity 0 scores best
      def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, m2: Double) = 0.0
    }
    // For (h=36, r=0, gold t=40): entities 0..39 score higher than gold,
    // but none are known tails; known = {40}; rank = 1 + 40 - 0 = 41? no:
    // entities 0..39 (40 of them) score higher → rank 41... none filtered.
    val rank = Evaluator.rankOf(m, data, 36, 0, 40)
    assert(rank === 41)
    // For gold t=0 (hypothetical): nothing scores higher → rank 1.
    val rank2 = Evaluator.rankOf(m, data, 36, 0, 0)
    assert(rank2 === 1)
  }

  test("rankOf filters known tails") {
    val data = toy
    // model scores tails 44,45 highest; for (h,r0) gold 40: 44/45 not in
    // truth(h, r0) (they belong to r1) → they should count as competitors.
    // But known tails of (h, r0) = {40} → only gold; competitor count is
    // over all non-known entities.
    val m = new KgeModel {
      val name = "fixed2"; val nEnt = data.nEnt; val nRel = data.nRel
      def score(h: Int, r: Int, t: Int): Double = if (t === 44 || t === 45) 10.0 else 0.0
      def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, m2: Double) = 0.0
    }
    val rank = Evaluator.rankOf(m, data, 36, 0, 40)
    // 2 strictly greater (44, 45); ties with all other 43 non-known,
    // non-gold entities → 1 + 2 + 43/2 = 24
    assert(rank === 1 + 2 + 43 / 2)
  }

  test("metrics from ranks are correct") {
    val m = Evaluator.fromRanks(Array(1, 2, 5, 11))
    assert(m.hits1 === 0.25)
    assert(m.hits3 === 0.5)
    assert(m.hits10 === 0.75)
    assert(math.abs(m.mr - 4.75) < 1e-9)
    assert(math.abs(m.mrr - (1.0 + 0.5 + 0.2 + 1.0 / 11) / 4) < 1e-9)
  }

  /** The roster models whose update kernels read and write the rows of
    * h, t, h2 and t2 in place, on the toy graph with images and text.
    */
  def kernelModels(d: KgeDataset): Seq[KgeModel] = Seq(
    new TuckER(d.nEnt, d.nRel, 12),
    new TransH(d.nEnt, d.nRel, 16),
    new TransD(d.nEnt, d.nRel, 16),
    new KgBertLike(d.nEnt, d.nRel, d.entText),
    new StarLike(d.nEnt, d.nRel, 16, d.entText),
    new TransAeLike(d.nEnt, d.nRel, 16, d.entImage),
    new RsmeLike(d.nEnt, d.nRel, 16, d.entImage),
    new MkgformerLike(d.nEnt, d.nRel, 16, d.entImage, d.entText))

  /** Every trained parameter table of a model, in a fixed order. */
  def paramTables(m: KgeModel): Seq[Array[Array[Float]]] = m match {
    case x: TuckER => Seq(x.ent, x.core)
    case x: TransH => Seq(x.ent, x.d, x.w)
    case x: TransD => Seq(x.ent, x.entP, x.rel, x.relP)
    case x: StarLike => Seq(x.kernel, Array(x.bias), x.relBias, x.ent, x.relS)
    case x: TextKgeBase => Seq(x.kernel, Array(x.bias), x.relBias)
    case x: RsmeLike => Seq(x.ent, x.rel, x.relV, x.visTail, Array(x.gateParam))
    case x: MkgformerLike => Seq(x.ent, x.rel, x.relV, x.visTail, x.kernel)
    case x: MultimodalBase => Seq(x.ent, x.rel, x.relV, x.visTail)
  }

  def tableChecksum(rows: Array[Array[Float]]): Long =
    rows.foldLeft(17L)((acc, row) =>
      row.foldLeft(acc)((a, x) => a * 31 + java.lang.Float.floatToIntBits(x)))

  /** Checksums of each parameter table after updates whose rows alias:
    * h == t (a self-loop positive), t2 == h (a tail corruption drawn as
    * the head) and h2 == t == t2. Recorded before the kernels were
    * rewritten to use scratch buffers and sparse text positions; any
    * change to the order of an update's float operations, or to what it
    * reads after writing an aliased row, moves them.
    */
  val pinnedAliasChecksums: Map[String, Seq[Long]] = Map(
    "TuckER" -> Seq(1211351033051139498L, -5239355357015119302L),
    "TransH" -> Seq(-6485958111590974083L, 3949522460347542115L, 3036767978123369642L),
    "TransD" -> Seq(6096450855802402863L, -2655020935038709611L, 3419149142154560199L,
      -6742334949489289474L),
    "KG-BERT" -> Seq(6183203171800153796L, -4072030462506963149L, -3200975183988341143L),
    "StAR" -> Seq(6183203171800153796L, -4072030462506963149L, -3200975183988341143L,
      -6208671520354310218L, 2100903990597745620L),
    "TransAE" -> Seq(-6208671520354310218L, 2100903990597745620L, 1704746373276339588L,
      -3980479391694880900L),
    "RSME" -> Seq(-6461641500446988986L, 762130883829016808L, -1627062786275659612L,
      -1811799052251966571L, -35084423831L),
    "MKGformer" -> Seq(-7888778423567021039L, -1088581614194418186L, 4791132684475274285L,
      -8304761264816120250L, -7145590498355493793L))

  test("updates with aliased rows keep their pinned parameter checksums") {
    val steps = Seq((3, 0, 3, 3, 41), (5, 1, 44, 5, 5), (7, 0, 42, 42, 42), (40, 1, 40, 40, 45))
    val got = kernelModels(toyImg).map { m =>
      (0 until 3).foreach { k =>
        steps.foreach { case (h, r, t, h2, t2) => m.update(h, r, t, h2, t2, 0.05 + 0.01 * k, 10.0) }
      }
      m.name -> paramTables(m).map(tableChecksum)
    }.toMap
    assert(got === pinnedAliasChecksums)
  }

  test("batched scoreTails equals score bit for bit") {
    val bits = java.lang.Double.doubleToLongBits _
    // TuckER's batched sum runs in another order (checked above to 1e-4).
    val models = kernelModels(toyImg).filterNot(_.isInstanceOf[TuckER]) ++
      Seq(new TransE(toyImg.nEnt, toyImg.nRel, 16), new DistMult(toyImg.nEnt, toyImg.nRel, 16))
    models.foreach { m =>
      Trainer.train(m, toyImg, cfg.copy(epochs = 3))
      for (h <- Seq(0, 3, 17, 40, 45); r <- 0 until toyImg.nRel) {
        val all = m.scoreTails(h, r)
        (0 until toyImg.nEnt).foreach { t =>
          // Text models never propose the head itself.
          if (!(m.isInstanceOf[TextKgeBase] && t == h))
            assert(bits(all(t)) === bits(m.score(h, r, t)), s"${m.name} ($h, $r, $t)")
        }
      }
    }
  }

  test("Lcg48 draws what java.util.Random draws") {
    val seeds = Seq(0L, 1L, 17L, 20L, -1L, -123456789L, Long.MinValue, Long.MaxValue)
    val bounds = Seq(1, 3, 16, 46, 1 << 30, (1 << 30) + 1, Int.MaxValue)
    for (seed <- seeds; bound <- bounds) {
      val a = new Lcg48(seed); val b = new java.util.Random(seed)
      (0 until 2000).foreach(i => assert(a.nextInt(bound) === b.nextInt(bound), s"seed $seed bound $bound draw $i"))
    }
    // The Trainer's interleaving: a shuffle, then per negative two
    // doubles and one or two bounded ints.
    for (seed <- seeds) {
      val a = new Lcg48(seed); val b = new java.util.Random(seed)
      (1 until 500).foreach { i =>
        assert(a.nextInt(i + 1) === b.nextInt(i + 1))
        val (da, db) = (a.nextDouble(), b.nextDouble())
        assert(java.lang.Double.doubleToLongBits(da) === java.lang.Double.doubleToLongBits(db))
        assert(a.nextDouble() === b.nextDouble())
        assert(a.nextInt(i % 7 + 1) === b.nextInt(i % 7 + 1))
        if (i % 3 == 0) assert(a.nextInt(Int.MaxValue - i) === b.nextInt(Int.MaxValue - i))
      }
    }
  }

  test("training is deterministic in the seed") {
    val a = new TransE(toy.nEnt, toy.nRel, 8, seed = 42L)
    val b = new TransE(toy.nEnt, toy.nRel, 8, seed = 42L)
    Trainer.train(a, toy, cfg.copy(epochs = 5))
    Trainer.train(b, toy, cfg.copy(epochs = 5))
    assert(a.ent(0).toSeq === b.ent(0).toSeq)
    assert(a.rel(1).toSeq === b.rel(1).toSeq)
  }
}
