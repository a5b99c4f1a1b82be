package repro.exp

import org.apache.spark.sql.SparkSession
import repro.benchmark.BenchConfig
import repro.core.{Kg, KgBuilder, RawSources}
import repro.synth.{SynthConfig, World}

/** Bench-scale world and KG, and the configs of the three OpenBG
  * benchmark extractions (our scaled OpenBG-IMG / OpenBG500 / OpenBG500-L).
  */
object BenchWorld {

  /** Construct the full KG at a given scale. */
  def buildKg(spark: SparkSession, cfg: SynthConfig = SynthConfig.bench): (World, Kg) = {
    val world = new World(cfg)
    val sources = RawSources.fromWorld(spark, world)
    (world, KgBuilder.build(spark, sources))
  }

  /** OpenBG-IMG analog: multimodal heads only, fewer relations. */
  val imgConfig: BenchConfig = BenchConfig(
    name = "OpenBG-IMG-S", nRelations = 14, headRelFraction = 0.3,
    alphaHead = 0.3, alphaTail = 0.15, alphaTriples = 0.7,
    nDev = 400, nTest = 1200, requireImage = true, seed = 101L)

  /** OpenBG500 analog: mid-size single-modal. */
  val b500Config: BenchConfig = BenchConfig(
    name = "OpenBG500-S", nRelations = 40, headRelFraction = 0.3,
    alphaHead = 0.4, alphaTail = 0.2, alphaTriples = 0.7,
    nDev = 500, nTest = 1000, requireImage = false, seed = 102L)

  /** OpenBG500-L analog: the large-scale version (α → 1). */
  val b500LConfig: BenchConfig = BenchConfig(
    name = "OpenBG500-L-S", nRelations = 60, headRelFraction = 0.3,
    alphaHead = 1.0, alphaTail = 0.9, alphaTriples = 1.0,
    nDev = 1000, nTest = 1500, requireImage = false, seed = 103L)
}
