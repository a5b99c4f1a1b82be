package repro.bench

import repro.SparkSpec
import repro.exp.Experiments.tableV

/** Table V — the five downstream tasks with simulated pre-trained models.
  * Shape (paper IV): KG enhancement helps every task; model capacity
  * (large vs base) adds a further, usually smaller, gain.
  */
class TableVSpec extends SparkSpec {
  import BenchFixtures._

  lazy val res = tableV.compute(inputs)

  test("Table V: run all reported cells and report vs the paper") {
    record(tableV, res)
  }

  test("Table V shape: KG enhancement helps category prediction") {
    assert(res.catPred("mPLUG-base+KG") >= res.catPred("mPLUG-base") - 0.005)
    assert(res.catPred("mPLUG-large+KG") >= res.catPred("mPLUG-base") - 0.005)
  }

  test("Table V shape: KG enhancement lifts NER markedly (paper: +5.2 F)") {
    assert(res.ner("mPLUG-base+KG") > res.ner("mPLUG-base"))
  }

  test("Table V shape: mPLUG-base beats the general-domain mT5 on summarization") {
    assert(res.summ("mPLUG-base") >= res.summ("mT5") - 0.01)
    // Capacity effects in the extractive formulation are within noise
    // (the paper's +6 ROUGE-L capacity jump needs a generative decoder —
    // documented deviation); require no regression beyond noise.
    assert(res.summ("mPLUG-large+KG") >= res.summ("mPLUG-base") - 0.015)
  }

  test("Table V shape: IE deltas are small but KG does not hurt") {
    assert(res.ie("mPLUG-base+KG") >= res.ie("mPLUG-base") - 0.01)
  }

  test("Table V shape: salience gains from KG exceed gains from capacity") {
    val kgGain = res.salience("mPLUG-base+KG") - res.salience("mPLUG-base")
    val capGain = res.salience("mPLUG-large+KG") - res.salience("mPLUG-base+KG")
    assert(kgGain > 0, s"kgGain=$kgGain")
    assert(kgGain >= capGain - 0.01, s"kgGain=$kgGain capGain=$capGain")
  }
}
