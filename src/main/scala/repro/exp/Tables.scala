package repro.exp

import org.apache.spark.sql.SparkSession
import repro.benchmark.Benchmark
import repro.core.{Kg, KgStats}
import repro.synth.World
import repro.tasks._
import repro.tasks.PretrainedSim._

/** Table generators: each returns the rendered "paper vs measured" text
  * block recorded in EXPERIMENTS.md. `Experiments` wires each to its
  * inputs and title for `TableJob` and the bench suites.
  */
object Tables {

  // ----------------------------------------------------------------- helpers

  def fmt(d: Double): String = f"$d%.3f"

  private def line(cols: Seq[String], widths: Seq[Int]): String =
    cols.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString(" | ")

  // ------------------------------------------------------------------ Table I

  /** Paper Table I headline numbers (full OpenBG). */
  val paperTableI: Seq[(String, Long)] = Seq(
    ("# core classes", 460805L),
    ("# core concepts", 670774L),
    ("# relation types", 2681L),
    ("# products (instances of categories)", 3062313L),
    ("# triples", 2603046837L))

  def tableI(spark: SparkSession, kg: Kg): String = {
    val overall = KgStats.overall(spark, kg).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val perType = KgStats.perTypeLevel(kg).collect()
      .map(r => (r.getString(0), r.getInt(1)) -> (r.getLong(2), r.getLong(3)))
    val perRel = KgStats.perRelation(kg).collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2)))

    val sb = new StringBuilder
    sb.append("TABLE I — Statistics of the constructed KG (ours, scaled) vs OpenBG (paper)\n")
    sb.append(line(Seq("metric", "paper (OpenBG)", "ours (scaled)"), Seq(40, 16, 16)) + "\n")
    paperTableI.foreach { case (metric, pv) =>
      val ours = overall.getOrElse(metric, -1L)
      sb.append(line(Seq(metric, pv.toString, ours.toString), Seq(40, 16, 16)) + "\n")
    }
    sb.append("\nPer class/concept type (level -> count, leaf): ours\n")
    perType.groupBy(_._1._1).toSeq.sortBy(_._1).foreach { case (ntype, rows) =>
      val byLevel = rows.sortBy(_._1._2)
        .map { case ((_, l), (n, leaf)) => s"L$l:$n(${leaf}leaf)" }.mkString("  ")
      sb.append(f"  $ntype%-14s $byLevel%s\n")
    }
    sb.append("\nTop relations by triple count: ours\n")
    perRel.take(12).foreach { case (p, kind, n) =>
      sb.append(f"  $p%-28s $kind%-8s $n%10d\n")
    }
    sb.toString
  }

  // ----------------------------------------------------------------- Table II

  /** Paper Table II rows: (name, #Ent, #Rel, #Train, #Dev, #Test). */
  val paperTableII: Seq[(String, Long, Long, Long, Long, Long)] = Seq(
    ("OpenBG-IMG", 27910L, 136L, 230087L, 5000L, 14675L),
    ("OpenBG500", 249743L, 500L, 1242550L, 5000L, 5000L),
    ("OpenBG500-L", 2782223L, 500L, 47410032L, 10000L, 10000L),
    ("OpenBG(Full)", 88881723L, 2681L, 260304683L, 0L, 0L))

  def tableII(kg: Kg, benches: Seq[Benchmark]): String = {
    val sb = new StringBuilder
    sb.append("TABLE II — Benchmark summary statistics (paper vs ours-scaled)\n")
    sb.append(line(Seq("dataset", "#Ent", "#Rel", "#Train", "#Dev", "#Test"),
      Seq(18, 10, 7, 11, 7, 7)) + "\n")
    paperTableII.foreach { case (n, e, r, tr, dv, te) =>
      sb.append(line(Seq(s"paper:$n", e.toString, r.toString, tr.toString,
        dv.toString, te.toString), Seq(18, 10, 7, 11, 7, 7)) + "\n")
    }
    benches.foreach { b =>
      val s = b.stats
      sb.append(line(Seq(s"ours:${s._1}", s._2.toString, s._3.toString, s._4.toString,
        s._5.toString, s._6.toString), Seq(18, 10, 7, 11, 7, 7)) + "\n")
      sb.append(s"    (multimodal entities: ${s._7})\n")
    }
    val fullEnt = kg.nodes.count(); val fullTriples = kg.triples.count()
    sb.append(s"ours:KG(Full)      $fullEnt entities, $fullTriples triples\n")
    sb.toString
  }

  // ----------------------------------------------------------- Tables III/IV

  /** Paper link-prediction rows: model -> (h1, h3, h10, mr, mrr). */
  val paperImg: Seq[(String, (Double, Double, Double, Double, Double))] = Seq(
    "TransE" -> (0.150, 0.387, 0.647, 118.0, 0.315),
    "TransH" -> (0.129, 0.525, 0.743, 112.0, 0.357),
    "TransD" -> (0.137, 0.532, 0.746, 110.0, 0.364),
    "DistMult" -> (0.060, 0.157, 0.279, 524.0, 0.139),
    "ComplEx" -> (0.143, 0.244, 0.371, 782.0, 0.221),
    "TuckER" -> (0.497, 0.690, 0.820, 1473.0, 0.611),
    "KG-BERT" -> (0.092, 0.207, 0.405, 61.0, 0.194),
    "StAR" -> (0.176, 0.307, 0.493, 79.0, 0.280),
    "TransAE" -> (0.274, 0.489, 0.715, 36.0, 0.421),
    "RSME" -> (0.485, 0.687, 0.838, 72.0, 0.607),
    "MKGformer" -> (0.448, 0.651, 0.822, 23.0, 0.575))

  val paper500: Seq[(String, (Double, Double, Double, Double, Double))] = Seq(
    "TransE" -> (0.207, 0.340, 0.513, 5381.0, 0.304),
    "TransH" -> (0.143, 0.402, 0.569, 6501.0, 0.296),
    "TransD" -> (0.146, 0.411, 0.576, 6129.0, 0.302),
    "DistMult" -> (0.068, 0.131, 0.255, 5709.0, 0.129),
    "ComplEx" -> (0.081, 0.187, 0.313, 6393.0, 0.156),
    "TuckER" -> (0.428, 0.615, 0.735, 2573.0, 0.541),
    "KG-BERT" -> (0.071, 0.145, 0.262, 401.0, 0.138),
    "GenKGC" -> (0.203, 0.280, 0.351, Double.NaN, Double.NaN))

  val paper500L: Seq[(String, (Double, Double, Double, Double, Double))] = Seq(
    "TransE" -> (0.314, 0.583, 0.820, 888.0, 0.482),
    "TransH" -> (0.247, 0.569, 0.813, 1157.0, 0.441),
    "TransD" -> (0.279, 0.575, 0.820, 858.0, 0.461),
    "DistMult" -> (0.012, 0.147, 0.299, 3065.0, 0.108),
    "ComplEx" -> (0.088, 0.195, 0.300, 4569.0, 0.165))

  def linkPredTable(title: String,
                    paper: Seq[(String, (Double, Double, Double, Double, Double))],
                    ours: Seq[LinkPred.ModelRun]): String = {
    val oursBy = ours.map(r => r.model -> r.metrics).toMap
    val sb = new StringBuilder
    sb.append(s"$title\n")
    sb.append(line(Seq("model", "paper: H@1 H@3 H@10 MR MRR", "ours: H@1 H@3 H@10 MR MRR"),
      Seq(12, 34, 34)) + "\n")
    paper.foreach { case (m, (h1, h3, h10, mr, mrr)) =>
      val pTxt = if (mr.isNaN) f"$h1%.3f $h3%.3f $h10%.3f     -     -"
                 else f"$h1%.3f $h3%.3f $h10%.3f ${mr}%7.0f $mrr%.3f"
      val oTxt = oursBy.get(m).map { o =>
        val showMrMrr = !mr.isNaN
        if (showMrMrr) f"${o.hits1}%.3f ${o.hits3}%.3f ${o.hits10}%.3f ${o.mr}%7.1f ${o.mrr}%.3f"
        else f"${o.hits1}%.3f ${o.hits3}%.3f ${o.hits10}%.3f     -     -"
      }.getOrElse("(not run)")
      sb.append(line(Seq(m, pTxt, oTxt), Seq(12, 34, 34)) + "\n")
    }
    sb.toString
  }

  // ------------------------------------------------------------------ Table V

  /** Paper Table V: per-task metric per model ("/" = not reported). */
  val paperTableV: String =
    """model            CatPred(Acc)  NER(F)  Summ(ROUGE-L)  IE(F)  Salience(Acc)
      |RoBERTa-large        68.80      69.10        /          /         /
      |UIE                    /        65.00        /          /         /
      |mT5                    /          /        70.12      83.32       /
      |BERT                   /          /          /          /       63.34
      |mPLUG-base           73.10      67.78      71.82      82.83     66.45
      |mPLUG-base+KG        74.48      73.00      72.30      83.76     69.45
      |mPLUG-large+KG       74.60      73.79      78.29      84.91     69.87""".stripMargin

  final case class TaskSuiteResult(
      catPred: Map[String, Double],
      ner: Map[String, Double],
      summ: Map[String, Double],
      ie: Map[String, Double],
      salience: Map[String, Double])

  /** Run every Table-V cell the paper reports. */
  def runTableV(spark: SparkSession, world: World, kg: Kg): TaskSuiteResult = {
    val catExamples = TaskData.categoryExamples(spark, world, kg)
    val nerExamples = TaskData.nerExamples(spark, world)
    val gaz = TaskData.kgGazetteer(spark, kg)
    val summExamples = TaskData.summarizationExamples(spark, world)
    val ieExamples = TaskData.ieExamples(spark, world)
    val attrLex = TaskData.kgAttrLexicon(spark, kg)
    val salExamples = TaskData.salienceExamples(spark, world, kg)

    def log(task: String, model: String, v: Double): Double = {
      Console.err.println(f"[TableV] $task%-10s $model%-16s $v%.4f"); v
    }
    TaskSuiteResult(
      catPred = Seq(RobertaLarge, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        s.name -> log("catpred", s.name,
          CategoryPrediction.run(spark, catExamples, s).accuracy)).toMap,
      ner = Seq(RobertaLarge, Uie, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        s.name -> log("ner", s.name,
          TitleNer.run(spark, nerExamples, gaz, s).f)).toMap,
      summ = Seq(Mt5, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        s.name -> log("summ", s.name,
          TitleSummarizer.run(spark, summExamples, gaz, s).rougeL)).toMap,
      ie = Seq(Mt5, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        s.name -> log("ie", s.name,
          ReviewIE.run(spark, ieExamples, attrLex, s).f)).toMap,
      salience = Seq(Bert, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        s.name -> log("salience", s.name,
          SalienceEvaluation.run(spark, salExamples, s).accuracy)).toMap)
  }

  def tableV(res: TaskSuiteResult): String = {
    val models = Seq("RoBERTa-large", "UIE", "mT5", "BERT",
      "mPLUG-base", "mPLUG-base+KG", "mPLUG-large+KG")
    def cell(m: Map[String, Double], k: String): String =
      m.get(k).map(v => f"${v * 100}%.2f").getOrElse("/")
    val sb = new StringBuilder
    sb.append("TABLE V — Downstream tasks (paper):\n")
    sb.append(paperTableV + "\n\n")
    sb.append("TABLE V — Downstream tasks (ours, scaled; x100):\n")
    sb.append(line(Seq("model", "CatPred", "NER-F", "ROUGE-L", "IE-F", "Salience"),
      Seq(16, 8, 8, 8, 8, 8)) + "\n")
    models.foreach { m =>
      sb.append(line(Seq(m, cell(res.catPred, m), cell(res.ner, m), cell(res.summ, m),
        cell(res.ie, m), cell(res.salience, m)), Seq(16, 8, 8, 8, 8, 8)) + "\n")
    }
    sb.toString
  }

  // ----------------------------------------------------------- Tables VI, VII

  val paperTableVI: Seq[(String, Double, Double)] = Seq(
    ("RoBERTa-large", 24.16, 68.73),
    ("RoBERTa-base+KG", 35.74, 68.99),
    ("mPLUG-base", 37.88, 67.17),
    ("mPLUG-base+KG", 48.94, 70.18),
    ("mPLUG-large+KG", 57.68, 71.57))

  val paperTableVII: Seq[(String, Double, Double)] = Seq(
    ("UIE", 57.20, 66.80),
    ("RoBERTa-base+KG", 59.60, 67.90),
    ("mPLUG-base", 40.51, 50.96),
    ("mPLUG-base+KG", 57.84, 61.55),
    ("mPLUG-large+KG", 62.57, 70.41))

  def runTableVI(spark: SparkSession, world: World, kg: Kg): Seq[(String, Double, Double)] = {
    val examples = TaskData.categoryExamples(spark, world, kg)
    Seq(RobertaLarge, RobertaBaseKg, MplugBase, MplugBaseKg, MplugLargeKg).map { s =>
      val a1 = CategoryPrediction.run(spark, examples, s, Some(1)).accuracy
      val a5 = CategoryPrediction.run(spark, examples, s, Some(5)).accuracy
      Console.err.println(f"[TableVI] ${s.name}%-16s 1shot=$a1%.4f 5shot=$a5%.4f")
      (s.name, a1 * 100, a5 * 100)
    }
  }

  def runTableVII(spark: SparkSession, world: World, kg: Kg): Seq[(String, Double, Double)] = {
    val examples = TaskData.nerExamples(spark, world)
    val gaz = TaskData.kgGazetteer(spark, kg)
    Seq(Uie, RobertaBaseKg, MplugBase, MplugBaseKg, MplugLargeKg).map { s =>
      val f1 = TitleNer.run(spark, examples, gaz, s, Some(1)).f
      val f5 = TitleNer.run(spark, examples, gaz, s, Some(5)).f
      Console.err.println(f"[TableVII] ${s.name}%-16s 1shot=$f1%.4f 5shot=$f5%.4f")
      (s.name, f1 * 100, f5 * 100)
    }
  }

  def lowResourceTable(title: String, paper: Seq[(String, Double, Double)],
                       ours: Seq[(String, Double, Double)]): String = {
    val oursBy = ours.map(r => r._1 -> (r._2, r._3)).toMap
    val sb = new StringBuilder
    sb.append(s"$title\n")
    sb.append(line(Seq("model", "paper 1-shot", "paper 5-shot", "ours 1-shot", "ours 5-shot"),
      Seq(17, 12, 12, 12, 12)) + "\n")
    paper.foreach { case (m, p1, p5) =>
      val (o1, o5) = oursBy.getOrElse(m, (Double.NaN, Double.NaN))
      sb.append(line(Seq(m, f"$p1%.2f", f"$p5%.2f", f"$o1%.2f", f"$o5%.2f"),
        Seq(17, 12, 12, 12, 12)) + "\n")
    }
    sb.toString
  }
}
