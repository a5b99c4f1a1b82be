package repro.perfbench

import repro.exp.LinkPred

/** Every metric the benchmark reports, with its unit. `BENCHMARK.json`
  * lists the same names; `run.py` checks each result against it.
  */
object Catalog {

  val endToEnd: Seq[(String, String)] = Seq(
    "wall_s" -> "s", "cpu_s" -> "s", "setup_s" -> "s", "heap_peak_mb" -> "MB")

  /** Table III roster: the models `LinkPred.run` trains and ranks. */
  val roster: Seq[String] = LinkPred.singleModalImg ++ LinkPred.multiModal

  val taskDataCalls: Seq[String] = Seq("categoryExamples", "nerExamples", "kgGazetteer",
    "summarizationExamples", "ieExamples", "kgAttrLexicon", "salienceExamples")

  val taskRunners: Seq[String] =
    Seq("CategoryPrediction", "TitleNer", "TitleSummarizer", "ReviewIE", "SalienceEvaluation")

  val benchmarkStages: Seq[String] =
    Seq("refineRelations", "filterHeadEntities", "sampleTriples", "split")

  /** Per-layer metrics of a traced run. A layer call the workload does
    * not make reads 0: `linkpred` builds no KG and runs no tasks, and
    * `construct` trains no models.
    */
  val perLayer: Seq[(String, String)] = {
    def wallRows(prefix: String) = Seq(s"$prefix.wall_s" -> "s", s"$prefix.rows_out" -> "count")
    Seq(
      wallRows("core.SchemaMapping.unifyPlaces"),
      wallRows("core.SchemaMapping.unifyBrands"),
      wallRows("core.LabelMatcher.linkBrands"),
      Seq("core.LabelMatcher.linkBrands.match_rate" -> "ratio"),
      wallRows("core.LabelMatcher.linkPlaces"),
      Seq("core.LabelMatcher.linkPlaces.match_rate" -> "ratio"),
      wallRows("core.ConceptExtractor.extract"),
      wallRows("core.ConceptExtractor.linkMarkets"),
      wallRows("core.QualityControl.facets"),
      Seq("core.QualityControl.filterLinks.wall_s" -> "s",
        "core.QualityControl.filterLinks.keep_rate" -> "ratio"),
      Seq("wall_s" -> "s", "nodes" -> "count", "triples" -> "count",
        "spark_jobs" -> "count", "spark_stages" -> "count", "spark_tasks" -> "count",
        "shuffle_mb" -> "MB", "task_run_s" -> "s").map { case (n, u) => s"core.KgBuilder.build.$n" -> u },
      Seq("core.assembly_est_s" -> "s", "core.KgStats.wall_s" -> "s"),
      Seq("img", "b500", "b500L").map(b => s"benchmark.BenchmarkBuilder.build.$b.wall_s" -> "s"),
      benchmarkStages.flatMap(s => wallRows(s"benchmark.BenchmarkBuilder.$s")),
      roster.map(m => s"kge.Trainer.train.$m.wall_s" -> "s"),
      Seq("kge.Trainer.train.wall_s" -> "s", "kge.Trainer.train.updates" -> "count",
        "kge.Trainer.train.updates_per_s" -> "1/s"),
      roster.map(m => s"kge.Evaluator.evaluate.$m.wall_s" -> "s"),
      Seq("kge.Evaluator.evaluate.wall_s" -> "s",
        "kge.Evaluator.evaluate.candidates_scored" -> "count",
        "kge.Evaluator.evaluate.spark_tasks" -> "count"),
      wallRows("kge.KgeData.fromBenchmark"),
      taskDataCalls.map(c => s"tasks.TaskData.$c.wall_s" -> "s"),
      taskRunners.flatMap(r => Seq(s"tasks.$r.run.wall_s" -> "s", s"tasks.$r.run.runs" -> "count")),
      Seq("jobs" -> "count", "stages" -> "count", "tasks" -> "count",
        "shuffle_write_mb" -> "MB", "spill_mb" -> "MB", "task_run_s" -> "s",
        "task_gc_s" -> "s", "busy_frac" -> "ratio").map { case (n, u) => s"spark.$n" -> u },
      Seq("trace.timed_wall_s" -> "s")
    ).flatten
  }
}
