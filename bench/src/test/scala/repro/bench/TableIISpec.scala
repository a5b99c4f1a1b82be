package repro.bench

import repro.SparkSpec
import repro.exp.Experiments.tableII

/** Table II — benchmark extraction statistics. */
class TableIISpec extends SparkSpec {
  import BenchFixtures._
  import BenchFixtures.inputs.{b500, b500L, img}

  test("Table II: build the three benchmarks and report stats vs the paper") {
    record(tableII, tableII.compute(inputs))
  }

  test("Table II shape: dataset ordering matches the paper (IMG < 500 < 500-L)") {
    val (si, s5, sL) = (img.stats, b500.stats, b500L.stats)
    assert(si._2 < s5._2 && s5._2 < sL._2, "entity counts must be increasing")
    assert(si._4 < s5._4 && s5._4 < sL._4, "train counts must be increasing")
    assert(si._3 < s5._3, "IMG has fewer relations (image-less triples dropped)")
  }

  test("Table II shape: OpenBG-IMG has a multimodal entity subset (paper: 14,718 of 27,910)") {
    val si = img.stats
    assert(si._7 > 0 && si._7 < si._2)
    assert(si._7.toDouble / si._2 > 0.3)
  }
}
