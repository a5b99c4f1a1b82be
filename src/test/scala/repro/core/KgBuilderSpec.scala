package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}

class KgBuilderSpec extends SparkSpec {
  lazy val world = TestFixtures.world
  lazy val kg = TestFixtures.kg

  test("tiny KG checksum and sizes equal the recorded values") {
    // Recorded from the join-based construction; any change to the
    // dataflow must keep the KG bit-identical.
    val checksum = kg.triples.agg(expr("bit_xor(xxhash64(s, p, o, kind))")).head().getLong(0)
    assert(checksum === 840515028454561693L)
    assert(kg.nodes.count() === 1191L)
    assert(kg.triples.count() === 10083L)
  }

  /** One more build of the tiny KG: its Spark job count and the cached
    * RDDs it adds.
    */
  private lazy val probe = {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val (built, jobs) = JobCounter.count(sc)(KgBuilder.build(spark, TestFixtures.sources))
    (built, jobs, sc.getPersistentRDDs.keySet -- before)
  }

  test("one build runs at most 10 % more Spark jobs than recorded") {
    val (_, jobs, _) = probe
    // 27 since the parent walks, the QC statistics and the catalogs run on
    // the driver; with the join walks this build ran 59.
    val recorded = 27
    assert(jobs <= recorded * 11 / 10, s"$jobs Spark jobs, recorded $recorded")
  }

  test("one build leaves only its four checkpointed outputs cached") {
    val (built, _, added) = probe
    val outputs = Seq(built.nodes, built.triples, built.images, built.facets)
    assert(added === outputs.flatMap(TestFixtures.checkpointRdds).toSet)
    assert(added.size === 4)
  }

  test("leafAncestors keeps the bounded parent-join semantics") {
    import spark.implicits._
    // A root, a chain deeper than the 3-hop walk (e stops at level 3), a
    // dangling parent id (x) and a null parent (y) that end in null, and a
    // level-2 node with a dangling parent that maps to itself (z).
    val tax = Seq[(String, String, Int, String)](
      ("r", "R", 1, ""), ("a", "A", 2, "r"), ("b", "B", 3, "a"), ("c", "C", 4, "b"),
      ("d", "D", 5, "c"), ("e", "E", 6, "d"), ("x", "X", 4, "missing"), ("y", "Y", 3, null),
      ("z", "Z", 2, "missing")).toDF("id", "label", "level", "parent")
    val got = KgBuilder.leafAncestors(tax).collect().map(r => (r.getString(0), r.getString(1)))
    assert(got.sorted.toSeq === Seq("a" -> "a", "b" -> "a", "c" -> "a", "d" -> "a", "e" -> "b",
      "r" -> "r", "x" -> null, "y" -> null, "z" -> "z"))
  }

  test("leafAncestors maps every leaf to its level-2 ancestor") {
    val anc = KgBuilder.leafAncestors(TestFixtures.sources.categoryTaxonomy)
      .collect().map(r => r.getString(0) -> r.getString(1)).toMap
    world.categoryLeaves.foreach { leaf =>
      var n = leaf
      while (n.level > 2) n = world.categoryById(n.parent)
      assert(anc(leaf.id) === n.id, leaf.id)
    }
  }

  test("triple table has exactly the three relation kinds") {
    val kinds = kg.triples.select("kind").distinct().collect().map(_.getString(0)).toSet
    assert(kinds === Set(Schema.KindObject, Schema.KindData, Schema.KindMeta))
  }

  test("no null subjects/predicates/objects") {
    assert(kg.triples.filter(col("s").isNull || col("p").isNull || col("o").isNull)
      .count() === 0)
  }

  test("every product has exactly one rdf:type triple to its leaf") {
    val t = kg.triples.filter(col("p") === Schema.RdfType &&
      col("s").startsWith("prod:"))
    assert(t.count() === world.cfg.nProducts)
    val gt = TestFixtures.gtProducts.map(p => p.id -> p.leafId).toMap
    t.collect().foreach(r => assert(gt(r.getString(0)) === r.getString(2)))
  }

  test("brandIs triples are precise w.r.t. ground truth (by label)") {
    val brandLabelById = kg.nodes.filter(col("ntype") === Schema.NtBrand)
      .select("id", "label").collect().map(r => r.getString(0) -> r.getString(1)).toMap
    val gtLabel = TestFixtures.gtProducts
      .map(p => p.id -> world.brandById(p.brandId).label).toMap
    val rows = kg.triples.filter(col("p") === Schema.BrandIs).collect()
    assert(rows.length > world.cfg.nProducts * 0.85)
    val ok = rows.count(r => brandLabelById(r.getString(2)) == gtLabel(r.getString(0)))
    assert(ok.toDouble / rows.length > 0.95)
  }

  test("placeOfOrigin triples exist with high coverage") {
    val n = kg.triples.filter(col("p") === Schema.PlaceOfOrigin).count()
    assert(n > world.cfg.nProducts * 0.9)
  }

  test("concept object properties use the right relation per type") {
    val scenes = kg.triples.filter(col("p") === Schema.RelatedScene)
      .select("o").collect().map(_.getString(0))
    assert(scenes.nonEmpty)
    scenes.foreach(o => assert(o.startsWith("scene:")))
    val crowds = kg.triples.filter(col("p") === Schema.ForCrowd)
      .select("o").collect().map(_.getString(0))
    crowds.foreach(o => assert(o.startsWith("crowd:")))
  }

  test("inMarket* is a relation family keyed by market roots") {
    val rels = kg.triples.filter(col("p").startsWith("inMarket:"))
      .select("p").distinct().collect().map(_.getString(0))
    assert(rels.length > 1, "expected several inMarket:<root> relations")
    rels.foreach(r => assert(r.startsWith("inMarket:market:r")))
  }

  test("attribute data properties point at value entities typed by attr class") {
    val attrTriples = kg.triples.filter(col("p").startsWith("attr:")).cache()
    assert(attrTriples.count() > 0)
    attrTriples.limit(50).collect().foreach { r =>
      assert(r.getString(0).startsWith("prod:"))
      assert(r.getString(2).startsWith("val:"))
    }
    // every value entity has an rdf:type to its attribute class
    val valueIds = kg.triples.filter(col("p") === Schema.RdfType &&
      col("s").startsWith("val:")).select("s").distinct().count()
    val valueNodes = kg.nodes.filter(col("ntype") === Schema.NtValue).count()
    assert(valueIds === valueNodes)
  }

  test("taxonomy meta triples attach roots to owl:Thing / skos:Concept") {
    val cat1 = kg.triples.filter(col("p") === Schema.SubClassOf &&
      col("s").startsWith("cat:1:"))
    cat1.collect().foreach(r => assert(r.getString(2) === Schema.OwlThing))
    val roots = kg.triples.filter(col("p") === Schema.Broader &&
      col("o") === Schema.SkosConcept).count()
    assert(roots > 0)
  }

  test("multimodal payload: imageIs triples align with the images side table") {
    val nTriples = kg.triples.filter(col("p") === Schema.ImageIs).count()
    assert(nTriples === kg.images.count())
    val frac = nTriples.toDouble / world.cfg.nProducts
    assert(math.abs(frac - world.cfg.imageFraction) < 0.06)
  }

  test("nodes table is keyed by id (no duplicates)") {
    assert(kg.nodes.groupBy("id").count().filter(col("count") > 1).count() === 0)
  }

  test("triples are distinct") {
    assert(kg.triples.count() === kg.triples.distinct().count())
  }

  test("labels: every product has rdfs:label and rdfs:comment") {
    val nLabel = kg.triples.filter(col("p") === Schema.RdfsLabel).count()
    val nComment = kg.triples.filter(col("p") === Schema.RdfsComment).count()
    assert(nLabel === world.cfg.nProducts)
    assert(nComment === world.cfg.nProducts)
  }

  test("spurious concept links are filtered by quality control") {
    // Spurious mentions are scene labels from unrelated leaf pools; after QC
    // filtering the relatedScene precision vs ground truth must stay high.
    val gt = TestFixtures.gtProducts.flatMap(p => p.scenes.map(s => (p.id, s))).toSet
    val got = kg.triples.filter(col("p") === Schema.RelatedScene)
      .select("s", "o").collect().map(r => (r.getString(0), r.getString(1))).toSet
    val precision = got.count(gt.contains).toDouble / got.size
    assert(precision > 0.9, s"post-QC precision $precision")
  }
}
