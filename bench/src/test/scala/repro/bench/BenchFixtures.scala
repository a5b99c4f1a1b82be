package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import repro.SparkSpec
import repro.benchmark.Benchmark
import repro.core.Kg
import repro.exp._
import repro.kge.{KgeData, KgeDataset}
import repro.synth.World

/** Shared bench-scale fixtures: one world + KG + benchmark extraction for
  * the whole bench run (suites execute sequentially in one JVM), plus the
  * results sink that EXPERIMENTS.md numbers are copied from.
  */
object BenchFixtures {
  lazy val spark = SparkSpec.shared

  lazy val worldAndKg: (World, Kg) = BenchWorld.buildKg(spark)
  def world: World = worldAndKg._1
  def kg: Kg = worldAndKg._2

  lazy val benchmarks: (Benchmark, Benchmark, Benchmark) = BenchWorld.buildBenchmarks(spark, kg)
  lazy val imgData: KgeDataset = KgeData.fromBenchmark(spark, kg, benchmarks._1)
  lazy val d500: KgeDataset = KgeData.fromBenchmark(spark, kg, benchmarks._2)
  lazy val d500L: KgeDataset = KgeData.fromBenchmark(spark, kg, benchmarks._3)

  private val resultsDir = Paths.get("bench-results")

  /** Print a table and persist it under bench-results/. */
  def record(name: String, content: String): Unit = {
    println(content)
    Files.createDirectories(resultsDir)
    Files.write(resultsDir.resolve(s"$name.txt"), content.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
