package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import repro.SparkSpec
import repro.exp.Experiments
import repro.synth.SynthConfig

/** Shared bench-scale inputs for the whole bench run (suites execute
  * sequentially in one JVM, so each input is built once), plus the
  * results sink that EXPERIMENTS.md numbers are copied from.
  */
object BenchFixtures {
  lazy val inputs: Experiments.Inputs = Experiments.Inputs(SparkSpec.shared, SynthConfig.bench)

  private val resultsDir = Paths.get("bench-results")

  /** Render a table's result, print it and persist it under bench-results/. */
  def record[R](table: Experiments.Table[R], result: R): Unit = {
    val content = table.render(result)
    println(content)
    Files.createDirectories(resultsDir)
    Files.write(resultsDir.resolve(s"${table.name}.txt"), content.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
