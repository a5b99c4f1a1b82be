package repro.synth

import scala.collection.mutable.ArrayBuffer

/** A node of a class/concept taxonomy. `parent` is empty for roots. */
final case class TaxNode(id: String, label: String, level: Int, parent: String)

/** Canonical brand record: the ground truth behind the noisy raw sources. */
final case class BrandRec(
    id: String,
    label: String,
    aliases: Seq[String],
    topGroup: Int,
    logoUrl: String,
    homePlace: String)

/** Attribute schema entry: a named attribute with its value vocabulary. */
final case class AttrSpec(idx: Int, name: String, values: IndexedSeq[String])

/** Per-leaf-category behavioural profile. Concept candidate lists are
  * split into `shared` (drawn from the L2-ancestor pool — typical for the
  * whole sibling group, hence NOT remarkable for this leaf) and `own`
  * (leaf-specific — both typical and remarkable, hence salient).
  */
final case class LeafProfile(
    leafIdx: Int,
    leafId: String,
    l2Idx: Int,
    attrs: IndexedSeq[AttrSpec],
    brandCands: IndexedSeq[String],
    brandCum: Array[Double],
    sceneShared: IndexedSeq[String],
    sceneOwn: IndexedSeq[String],
    crowdShared: IndexedSeq[String],
    crowdOwn: IndexedSeq[String],
    themeOwn: IndexedSeq[String],
    timeCands: IndexedSeq[String],
    marketOwn: IndexedSeq[String])

/** A fully-specified ground-truth product. Raw sources are noisy
  * projections of this; task datasets are labeled projections of this.
  */
final case class ProductRecord(
    idx: Long,
    id: String,
    leafId: String,
    brandId: String,
    placeId: String,
    attrs: Seq[(String, String)],          // (attrName, value)
    scenes: Seq[String],
    crowds: Seq[String],
    themes: Seq[String],
    times: Seq[String],
    markets: Seq[String],
    titleTokens: Seq[String],
    titleTags: Seq[String],                // BIO tags aligned with titleTokens
    shortTitle: Seq[String],               // gold summarization target
    hasImage: Boolean,
    imageVec: Array[Float])

/** One synthetic review with IE and concept-mention gold labels. */
final case class ReviewRecord(
    reviewId: String,
    productId: String,
    text: String,
    goldTriples: Seq[(String, String, String)],   // (aspect, attrName, opinion)
    goldMentions: Seq[(String, String)])          // (conceptType, conceptLabel)

/** The deterministic synthetic business world: every catalog the raw
  * sources and gold labels are derived from. Built once on the driver
  * (it is small — O(10^3..10^4) rows) and captured by the closures of the
  * Spark maps that generate products and reviews. Fully determined by `cfg`.
  */
final class World(val cfg: SynthConfig) extends Serializable {
  import Vocab._

  private val seed = cfg.seed

  // ---------------------------------------------------------------- Category
  /** Category taxonomy, levels 1..4. Leaves are the deepest node of each
    * branch (L4 where present, else L3).
    */
  val categories: IndexedSeq[TaxNode] = {
    val buf = new ArrayBuffer[TaxNode]
    var l4Count = 0
    val nL4Target = cfg.nL4
    for (a <- 0 until cfg.l1Categories) {
      val idA = s"cat:1:$a"
      buf += TaxNode(idA, categoryLabel(1, a), 1, "")
      for (b <- 0 until cfg.l2PerL1) {
        val ib = a * cfg.l2PerL1 + b
        val idB = s"cat:2:$ib"
        buf += TaxNode(idB, categoryLabel(2, ib), 2, idA)
        for (c <- 0 until cfg.l3PerL2) {
          val ic = ib * cfg.l3PerL2 + c
          val idC = s"cat:3:$ic"
          buf += TaxNode(idC, categoryLabel(3, ic), 3, idB)
          // Deterministically give the first `l4Fraction` of L3 nodes an L4 child.
          if (l4Count < nL4Target && (mix(seed + ic) % 100) < (cfg.l4Fraction * 100).toLong) {
            buf += TaxNode(s"cat:4:$l4Count", categoryLabel(4, l4Count), 4, idC)
            l4Count += 1
          }
        }
      }
    }
    buf.toIndexedSeq
  }

  val categoryById: Map[String, TaxNode] = categories.map(n => n.id -> n).toMap

  /** Leaf categories: nodes with no child in `categories`. */
  val categoryLeaves: IndexedSeq[TaxNode] = {
    val parents = categories.map(_.parent).toSet
    categories.filter(n => !parents.contains(n.id))
  }

  /** Walks up to the L2 ancestor index of a leaf (for shared concept pools). */
  private def l2AncestorIdx(leaf: TaxNode): Int = {
    var n = leaf
    while (n.level > 2) n = categoryById(n.parent)
    n.id.split(":").last.toInt
  }

  // ------------------------------------------------------------------- Place
  /** Place taxonomy: country(1) → province(2) → city(3) → county(4) → town(5). */
  val places: IndexedSeq[TaxNode] = {
    val buf = new ArrayBuffer[TaxNode]
    var Array(ip, ic, ik, it) = Array(0, 0, 0, 0)
    for (co <- 0 until cfg.nCountries) {
      val idCo = s"place:1:$co"
      buf += TaxNode(idCo, placeLabel(1, co), 1, "")
      for (_ <- 0 until cfg.provincesPerCountry) {
        val idP = s"place:2:$ip"; buf += TaxNode(idP, placeLabel(2, ip), 2, idCo); ip += 1
        for (_ <- 0 until cfg.citiesPerProvince) {
          val idC = s"place:3:$ic"; buf += TaxNode(idC, placeLabel(3, ic), 3, idP); ic += 1
          for (_ <- 0 until cfg.countiesPerCity) {
            val idK = s"place:4:$ik"; buf += TaxNode(idK, placeLabel(4, ik), 4, idC); ik += 1
            for (_ <- 0 until cfg.townsPerCounty) {
              val idT = s"place:5:$it"; buf += TaxNode(idT, placeLabel(5, it), 5, idK); it += 1
            }
          }
        }
      }
    }
    buf.toIndexedSeq
  }

  val cities: IndexedSeq[TaxNode] = places.filter(_.level == 3)

  val placeById: Map[String, TaxNode] = places.map(p => p.id -> p).toMap

  // ------------------------------------------------------------------- Brand
  val brands: IndexedSeq[BrandRec] = {
    // Brand names must be unique: the canonical registry dedups by name,
    // so a hash-word collision would silently merge two brands.
    val used = scala.collection.mutable.HashSet[String]()
    (0 until cfg.nBrands).map { i =>
      val base = brandLabel(i)
      val lbl0 = if (used.contains(base)) s"$base ${word(SaltBrand + 991L, i)}" else base
      val lbl = if (used.contains(lbl0)) s"$lbl0 ${word(SaltBrand + 997L, i)}" else lbl0
      used += lbl
      brandRec(i, lbl)
    }
  }

  private def brandRec(i: Int, lbl: String): BrandRec = {
    val aliases = (1 to cfg.aliasesPerBrand).map(k => s"$lbl ${word(SaltBrand + 7L * k, i)}")
    val home = cities((math.abs(mix(seed + 900 + i)) % cities.size).toInt).id
    BrandRec(s"brand:$i", lbl, aliases, (i % cfg.nBrandTopGroups),
      s"http://logo.example/$i.png", home)
  }

  val brandById: Map[String, BrandRec] = brands.map(b => b.id -> b).toMap

  // ---------------------------------------------------------------- Concepts
  private def conceptTax(ctype: String, n: Int, salt: Long): IndexedSeq[TaxNode] = {
    val nRoots = math.max(1, math.sqrt(n.toDouble).toInt / 2)
    val roots = (0 until nRoots).map(i => TaxNode(s"$ctype:r$i", conceptLabel(ctype, 100000L + i), 1, ""))
    val leaves = (0 until n).map { i =>
      val r = (math.abs(mix(salt + i)) % nRoots).toInt
      TaxNode(s"$ctype:$i", conceptLabel(ctype, i), 2, s"$ctype:r$r")
    }
    roots ++ leaves
  }

  val scenes: IndexedSeq[TaxNode]  = conceptTax("scene", cfg.nScene, seed + 11)
  val crowds: IndexedSeq[TaxNode]  = conceptTax("crowd", cfg.nCrowd, seed + 12)
  val themes: IndexedSeq[TaxNode]  = conceptTax("theme", cfg.nTheme, seed + 13)
  val times: IndexedSeq[TaxNode]   = conceptTax("time", cfg.nTime, seed + 14)
  val markets: IndexedSeq[TaxNode] = conceptTax("market", cfg.nMarket, seed + 15)

  val allConcepts: IndexedSeq[TaxNode] = scenes ++ crowds ++ themes ++ times ++ markets

  def conceptsOf(ctype: String): IndexedSeq[TaxNode] = ctype match {
    case "scene" => scenes; case "crowd" => crowds; case "theme" => themes
    case "time" => times; case "market" => markets
  }

  /** Leaf-level (level-2) concepts of a type — the linkable ones. */
  def conceptLeaves(ctype: String): IndexedSeq[TaxNode] = conceptsOf(ctype).filter(_.level == 2)

  // -------------------------------------------------------------- Attributes
  val attrPool: IndexedSeq[AttrSpec] = (0 until cfg.attrPool).map { i =>
    // Half of the value vocabulary is attribute-specific, half is shared
    // across the attribute's family (i mod 8): the same surface word can
    // be a value of several attributes — the type ambiguity real product
    // attributes exhibit (and what makes title NER non-trivial).
    val vals = (0 until cfg.valuesPerAttr).map { v =>
      if (v < cfg.valuesPerAttr / 2) attrValue(i, v) else attrValue(i % 8, 1000 + v)
    }
    AttrSpec(i, attrName(i), vals)
  }

  // ----------------------------------------------------------- Leaf profiles
  private def pick[A](xs: IndexedSeq[A], k: Int, salt: Long): IndexedSeq[A] = {
    val n = xs.size
    if (k >= n) xs
    else {
      val seen = scala.collection.mutable.LinkedHashSet[Int]()
      var s = salt
      while (seen.size < k) { s = mix(s); seen += (math.abs(s) % n).toInt }
      seen.toIndexedSeq.map(xs)
    }
  }

  val leafProfiles: IndexedSeq[LeafProfile] = categoryLeaves.zipWithIndex.map { case (leaf, li) =>
    val l2 = l2AncestorIdx(leaf)
    val salt = seed + 7777L * li
    val attrs = pick(attrPool, cfg.attrsPerLeaf, salt + 1)
    val brandCands = pick(brands, cfg.brandsPerLeaf, salt + 2).map(_.id)
    val brandCum = zipfCumulative(brandCands.size, 1.2)
    val sceneL = conceptLeaves("scene"); val crowdL = conceptLeaves("crowd")
    val themeL = conceptLeaves("theme"); val timeL = conceptLeaves("time")
    val marketL = conceptLeaves("market")
    // Salience-prone vs generic concept ranges (overlapping): concept
    // identity carries partial information about salience, as in real
    // commonsense KBs — text-only models get signal, not the answer.
    def lowRange(xs: IndexedSeq[TaxNode]) = xs.take(math.max(1, xs.size * 7 / 10))
    def highRange(xs: IndexedSeq[TaxNode]) = xs.drop(xs.size * 4 / 10)
    LeafProfile(
      leafIdx = li, leafId = leaf.id, l2Idx = l2, attrs = attrs,
      brandCands = brandCands, brandCum = brandCum,
      sceneShared = pick(highRange(sceneL), 2, seed + 31L * l2).map(_.id),
      sceneOwn = pick(lowRange(sceneL), 2, salt + 3).map(_.id),
      crowdShared = pick(highRange(crowdL), 1, seed + 37L * l2).map(_.id),
      crowdOwn = pick(lowRange(crowdL), 1, salt + 4).map(_.id),
      themeOwn = pick(themeL, 2, salt + 5).map(_.id),
      timeCands = pick(timeL, 2, salt + 6).map(_.id),
      marketOwn = pick(marketL, 3, salt + 7).map(_.id))
  }

  val leafProfileById: Map[String, LeafProfile] = leafProfiles.map(p => p.leafId -> p).toMap

  // ---------------------------------------------------------------- Products
  /** Long-tailed assignment of products to leaves. */
  private val leafCum: Array[Double] = zipfCumulative(categoryLeaves.size, 0.8)

  private def rng(idx: Long, salt: Long) = new java.util.Random(mix(seed * 1000003L + idx * 31L + salt))

  /** Deterministic image feature: noisy projections of (leaf, brand). */
  private def imageFeature(leafIdx: Int, brandIdx: Int, r: java.util.Random): Array[Float] = {
    val d = cfg.imageDim
    val v = new Array[Float](d)
    var i = 0
    while (i < d) {
      val leafBasis  = if (((mix(1234L + leafIdx * 131L + i) >>> 16) & 1L) == 1L) 1f else -1f
      val brandBasis = if (((mix(5678L + brandIdx * 131L + i) >>> 16) & 1L) == 1L) 1f else -1f
      v(i) = (if (i < d / 2) leafBasis else brandBasis) + 0.2f * r.nextGaussian().toFloat
      i += 1
    }
    v
  }

  /** The fully-specified product `idx` (0-based). */
  def product(idx: Long): ProductRecord = {
    val r = rng(idx, 1)
    val li = sampleCumulative(leafCum, r.nextDouble())
    val prof = leafProfiles(li)
    val leaf = categoryLeaves(li)

    val brandId = prof.brandCands(sampleCumulative(prof.brandCum, r.nextDouble()))
    val brand = brandById(brandId)
    val placeId = if (r.nextDouble() < 0.8) brand.homePlace
                  else cities((r.nextInt(cities.size))).id

    // Attribute values: zipf over a leaf-rotated value ordering so values
    // correlate with the leaf category.
    val valCum = zipfCumulative(cfg.valuesPerAttr, 1.1)
    val attrs = prof.attrs.map { a =>
      // 1/3 of attributes carry leaf-level signal; the rest are only
      // informative at the L2 ancestor level (siblings share them), so
      // distinguishing sibling leaves needs the leaf-keyed attributes.
      val rotKey = if (a.idx % 3 == 0) 51L * li + a.idx else 67L * prof.l2Idx + a.idx
      val rot = (math.abs(mix(seed + rotKey)) % cfg.valuesPerAttr).toInt
      val v = (rot + sampleCumulative(valCum, r.nextDouble())) % cfg.valuesPerAttr
      a.name -> a.values(v)
    }

    def draw(shared: IndexedSeq[String], own: IndexedSeq[String], pOwn: Double): Seq[String] = {
      val out = ArrayBuffer[String]()
      if (shared.nonEmpty && r.nextDouble() < 0.8) out += shared((r.nextInt(shared.size)))
      if (own.nonEmpty && r.nextDouble() < pOwn) out += own((r.nextInt(own.size)))
      out.distinct.toSeq
    }
    val sc = draw(prof.sceneShared, prof.sceneOwn, 0.85)
    val cr = draw(prof.crowdShared, prof.crowdOwn, 0.7)
    val th = if (r.nextDouble() < 0.5) Seq(prof.themeOwn(r.nextInt(prof.themeOwn.size))) else Nil
    val tm = if (r.nextDouble() < 0.6) Seq(prof.timeCands(r.nextInt(prof.timeCands.size))) else Nil
    val mk = prof.marketOwn.take(1 + r.nextInt(prof.marketOwn.size))

    // Title: [brand] [value x2] [filler] [category label] [value x1?]
    val tokens = ArrayBuffer[String](); val tags = ArrayBuffer[String]()
    def addSpan(ws: Seq[String], typ: String): Unit = {
      ws.zipWithIndex.foreach { case (w, i) =>
        tokens += w; tags += (if (i == 0) s"B-$typ" else s"I-$typ")
      }
    }
    addSpan(brand.label.split(" ").toSeq, "Brand")
    val (headAttrs, tailAttrs) = attrs.splitAt(2)
    headAttrs.foreach { case (an, v) => addSpan(Seq(v), an) }
    val fillerTok =
      if (r.nextDouble() < 0.3) {
        val a = attrPool(r.nextInt(attrPool.size))
        a.values(r.nextInt(a.values.size))
      } else fillerWord(r.nextInt(40))
    tokens += fillerTok; tags += "O"
    addSpan(leaf.label.split(" ").toSeq, "Category")
    tailAttrs.headOption.foreach { case (an, v) => addSpan(Seq(v), an) }

    val keptAttr = if (headAttrs.isEmpty) None
                   else Some(headAttrs(r.nextInt(headAttrs.size)))
    val shortTitle = brand.label.split(" ").toSeq ++
      keptAttr.map(_._2).toSeq ++ Seq(leaf.label.split(" ").last)

    val hasImage = r.nextDouble() < cfg.imageFraction
    val img = if (hasImage) {
      val bi = brandId.split(":").last.toInt
      imageFeature(li, bi, r)
    } else Array.empty[Float]

    ProductRecord(idx, s"prod:$idx", leaf.id, brandId, placeId, attrs.toSeq,
      sc, cr, th.toSeq, tm.toSeq, mk.toSeq,
      tokens.toSeq, tags.toSeq, shortTitle, hasImage, img)
  }

  // ----------------------------------------------------------------- Reviews
  private val conceptLabelById: Map[String, String] = allConcepts.map(n => n.id -> n.label).toMap

  def conceptLabel2(id: String): String = conceptLabelById(id)

  /** Reviews of a product, with IE-gold triples and concept-mention gold. */
  def reviews(p: ProductRecord): Seq[ReviewRecord] = {
    val leafHead = categoryById(p.leafId).label.split(" ").last
    (0 until cfg.reviewsPerProduct).map { k =>
      val r = rng(p.idx, 100 + k)
      val sb = new StringBuilder
      val triples = ArrayBuffer[(String, String, String)]()
      val mentions = ArrayBuffer[(String, String)]()
      // Aspect-opinion sentences over 1-2 true attributes.
      val nAsp = 1 + r.nextInt(2)
      p.attrs.take(nAsp).foreach { case (an, _) =>
        val op = opinionWord(r.nextInt(1 << 20))
        if (r.nextDouble() < 0.2) {
          // implicit-aspect phrasing: still gold, but outside the
          // extractor's candidate template — a recall ceiling, as with
          // real free-form reviews
          sb.append(s"its $an is $op . ")
        } else {
          sb.append(s"the $an of $leafHead is $op . ")
        }
        triples += ((leafHead, an, op))
      }
      // Hard distractor: a REAL attribute name with a junk aspect — the
      // classifier must check the aspect slot, not just the attribute.
      if (r.nextDouble() < 0.25) {
        val a = attrPool(r.nextInt(attrPool.size))
        sb.append(s"the ${a.name} of ${fillerWord(120 + r.nextInt(40))} " +
          s"is ${opinionWord(r.nextInt(1 << 20))} . ")
      }
      // Concept mention sentence(s).
      def mention(ctype: String, ids: Seq[String]): Unit = if (ids.nonEmpty && r.nextDouble() < 0.8) {
        val lbl = conceptLabelById(ids(r.nextInt(ids.size)))
        val conn = ctype match {
          case "scene" => "great for"; case "crowd" => "bought for"
          case "theme" => "fits theme"; case "time" => "ideal in"; case _ => "fits"
        }
        sb.append(s"$conn $lbl . ")
        mentions += ((ctype, lbl))
      }
      // Distractor sentence matching the aspect-opinion template but with
      // filler words — an invalid triple the IE extractor must reject.
      if (r.nextDouble() < 0.5) {
        sb.append(s"the ${fillerWord(r.nextInt(40))} of ${fillerWord(40 + r.nextInt(40))} " +
          s"is ${fillerWord(80 + r.nextInt(40))} . ")
      }
      mention("scene", p.scenes); mention("crowd", p.crowds)
      mention("theme", p.themes); mention("time", p.times)
      // Spurious concept-vocabulary mention from an unrelated pool: real
      // lexicon token, wrong product — construction-time noise.
      if (r.nextDouble() < cfg.noise.spuriousMentionRate) {
        val pool = conceptLeaves("scene")
        val lbl = pool(r.nextInt(pool.size)).label
        sb.append(s"also nice for $lbl . ")
        // NOT added to goldMentions: it is noise w.r.t. the product.
      }
      sb.append(s"overall ${opinionWord(r.nextInt(1 << 20))}")
      ReviewRecord(s"rev:${p.idx}:$k", p.id, sb.toString, triples.toSeq, mentions.toSeq)
    }
  }
}
