package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD
import repro.core.{Kg, KgBuilder, RawSources}
import repro.synth.{BusinessSynth, ProductRecord, SynthConfig, World}

/** Shared tiny-scale fixtures. Suites run sequentially in one JVM
  * (Test / parallelExecution := false), so these lazily build once and
  * are reused by every suite that needs them.
  */
object TestFixtures {
  lazy val world: World = new World(SynthConfig.tiny)

  lazy val sources: RawSources = RawSources.fromWorld(SparkSpec.shared, world)

  lazy val kg: Kg = KgBuilder.build(SparkSpec.shared, sources).cache()

  /** Ids of the RDDs a DataFrame reads directly, such as the one its
    * `localCheckpoint` persisted.
    */
  def checkpointRdds(df: DataFrame): Set[Int] =
    df.queryExecution.logical.collect { case r: LogicalRDD => r.rdd.id }.toSet

  /** Ground-truth products, collected once. */
  lazy val gtProducts: Seq[ProductRecord] =
    BusinessSynth.products(SparkSpec.shared, world).collect().toSeq
}
