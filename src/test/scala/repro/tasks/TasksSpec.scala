package repro.tasks

import org.apache.spark.JobCounter
import repro.{SparkSpec, TestFixtures}
import PretrainedSim._

/** End-to-end downstream-task tests on the tiny world. Absolute numbers
  * at this scale are loose; the tests pin the *structure*: models train,
  * metrics are sane, KG enhancement does not hurt and usually helps.
  */
class TasksSpec extends SparkSpec {
  lazy val world = TestFixtures.world
  lazy val kg = TestFixtures.kg

  lazy val catExamples = TaskData.categoryExamples(spark, world, kg)
  lazy val nerExamples = TaskData.nerExamples(spark, world)
  lazy val gaz = TaskData.kgGazetteer(spark, kg)
  lazy val summExamples = TaskData.summarizationExamples(spark, world)
  lazy val ieExamples = TaskData.ieExamples(spark, world)
  lazy val attrLex = TaskData.kgAttrLexicon(spark, kg)
  lazy val salExamples = TaskData.salienceExamples(spark, world, kg)

  // ------------------------------------------------------------ dataset shape

  test("category examples strip the fine-grained category term") {
    val byId = TestFixtures.gtProducts.map(p => p.id -> p).toMap
    catExamples.take(50).foreach { e =>
      val leafTokens = world.categoryById(byId(e.itemId).leafId).label.split(" ").toSet
      assert(!e.title.exists(leafTokens.contains), s"leaked leaf term in ${e.itemId}")
    }
  }

  test("category KG tokens never contain the leaf label (no label leakage)") {
    val byId = TestFixtures.gtProducts.map(p => p.id -> p).toMap
    catExamples.take(50).foreach { e =>
      val leafLabel = world.categoryById(byId(e.itemId).leafId).label
      assert(!e.kgTokens.contains(leafLabel))
    }
  }

  test("kShot keeps at most k examples per class") {
    val k1 = TaskData.kShot(catExamples, 1)
    assert(k1.groupBy(_.label).values.forall(_.size <= 1))
    val k5 = TaskData.kShot(catExamples, 5)
    assert(k5.groupBy(_.label).values.forall(_.size <= 5))
    assert(k5.size > k1.size)
  }

  test("NER gazetteer maps attribute values to their attribute name") {
    val p = TestFixtures.gtProducts.head
    val (attrName, value) = p.attrs.head
    assert(gaz.getOrElse(value, Nil).contains(attrName), s"$value -> $attrName")
  }

  test("NER, summarization and review-IE examples start no Spark job") {
    val (_, jobs) = JobCounter.count(spark.sparkContext) {
      (TaskData.nerExamples(spark, world), TaskData.summarizationExamples(spark, world),
        TaskData.ieExamples(spark, world))
    }
    assert(jobs === 0)
  }

  test("summarization gold keep mask reconstructs the short title") {
    summExamples.take(50).foreach { e =>
      val kept = e.tokens.zip(e.keep).collect { case (t, true) => t }
      assert(kept.sorted === e.gold.sorted, e.itemId)
    }
  }

  test("IE candidates cover most gold triples (implicit-aspect phrasing caps recall)") {
    var covered = 0; var total = 0
    ieExamples.take(200).foreach { e =>
      val cands = ReviewIE.candidates(e.text).toSet
      covered += e.gold.count(cands.contains)
      total += e.gold.size
    }
    val coverage = covered.toDouble / total
    assert(coverage > 0.7 && coverage < 1.0, s"coverage=$coverage")
  }

  test("IE candidates include distractors (classifier has work to do)") {
    val nCands = ieExamples.map(e => ReviewIE.candidates(e.text).size).sum
    val nGold = ieExamples.map(_.gold.size).sum
    assert(nCands > nGold * 1.2, s"cands=$nCands gold=$nGold")
  }

  test("salience examples have both labels and sane stats") {
    assert(salExamples.count(_.salient) > 20)
    assert(salExamples.count(!_.salient) > 20)
    salExamples.foreach { e =>
      assert(e.stats.length === 3)
      assert(!e.stats.exists(_.isNaN))
    }
  }

  test("salient examples carry higher KG typicality than random negatives") {
    val posTyp = salExamples.filter(_.salient).map(_.stats(0))
    val negTyp = salExamples.filter(!_.salient).map(_.stats(0))
    assert(posTyp.sum / posTyp.size > negTyp.sum / negTyp.size)
  }

  // ------------------------------------------------------------------- models

  test("category prediction: KG features help, especially 1-shot") {
    val base = CategoryPrediction.run(spark, catExamples, MplugBase)
    val kg1 = CategoryPrediction.run(spark, catExamples, MplugBaseKg)
    assert(base.accuracy > 0.3, s"base ${base.accuracy}")
    assert(kg1.accuracy >= base.accuracy - 0.02, s"kg ${kg1.accuracy} vs ${base.accuracy}")

    val b1 = CategoryPrediction.run(spark, catExamples, MplugBase, Some(1))
    val k1 = CategoryPrediction.run(spark, catExamples, MplugBaseKg, Some(1))
    assert(k1.accuracy > b1.accuracy, s"1-shot kg ${k1.accuracy} vs base ${b1.accuracy}")
  }

  test("NER: gazetteer (+KG) lifts span F1") {
    val base = TitleNer.run(spark, nerExamples, gaz, MplugBase)
    val withKg = TitleNer.run(spark, nerExamples, gaz, MplugBaseKg)
    assert(base.f > 0.3, s"base $base")
    assert(withKg.f > base.f - 0.02, s"kg $withKg vs $base")
  }

  test("summarization: models produce reasonable ROUGE-L and KG helps") {
    val base = TitleSummarizer.run(spark, summExamples, gaz, MplugBase)
    val withKg = TitleSummarizer.run(spark, summExamples, gaz, MplugBaseKg)
    assert(base.rougeL > 0.4, s"base $base")
    assert(withKg.rougeL >= base.rougeL - 0.02, s"kg $withKg vs $base")
  }

  test("review IE: high F1, KG lexicon does not hurt") {
    val base = ReviewIE.run(spark, ieExamples, attrLex, Mt5)
    val withKg = ReviewIE.run(spark, ieExamples, attrLex, MplugBaseKg)
    assert(base.f > 0.6, s"base $base")
    assert(withKg.f >= base.f - 0.03, s"kg $withKg vs $base")
  }

  test("salience: KG statistics lift accuracy over text-only") {
    val base = SalienceEvaluation.run(spark, salExamples, Bert)
    val withKg = SalienceEvaluation.run(spark, salExamples, MplugBaseKg)
    assert(base.accuracy > 0.4, s"base $base")
    assert(withKg.accuracy > base.accuracy - 0.02, s"kg $withKg vs $base")
  }

  test("task runs are deterministic") {
    val a = CategoryPrediction.run(spark, catExamples, MplugBase, Some(5))
    val b = CategoryPrediction.run(spark, catExamples, MplugBase, Some(5))
    assert(a.accuracy === b.accuracy)
  }
}
