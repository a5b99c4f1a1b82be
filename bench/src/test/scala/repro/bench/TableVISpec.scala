package repro.bench

import repro.SparkSpec
import repro.exp.Experiments.tableVI

/** Table VI — low-resource (1/5-shot) category prediction.
  * Shape (paper IV-B): the scarcer the data, the bigger the KG gain;
  * +KG dominates 1-shot, the gap narrows at 5-shot.
  */
class TableVISpec extends SparkSpec {
  import BenchFixtures._

  lazy val rows: Seq[(String, Double, Double)] = tableVI.compute(inputs)
  lazy val by: Map[String, (Double, Double)] = rows.map(r => r._1 -> (r._2, r._3)).toMap

  test("Table VI: run 1/5-shot category prediction and report vs the paper") {
    record(tableVI, rows)
  }

  test("Table VI shape: KG enhancement dominates the 1-shot setting") {
    assert(by("mPLUG-base+KG")._1 > by("mPLUG-base")._1,
      s"kg=${by("mPLUG-base+KG")._1} base=${by("mPLUG-base")._1}")
    assert(by("RoBERTa-base+KG")._1 > by("RoBERTa-large")._1)
  }

  test("Table VI shape: the KG gain shrinks from 1-shot to 5-shot") {
    val gain1 = by("mPLUG-base+KG")._1 - by("mPLUG-base")._1
    val gain5 = by("mPLUG-base+KG")._2 - by("mPLUG-base")._2
    assert(gain1 > gain5 - 1.0, s"gain1=$gain1 gain5=$gain5")
  }

  test("Table VI shape: 5-shot beats 1-shot for every model") {
    rows.foreach { case (m, a1, a5) => assert(a5 >= a1, s"$m: 1shot=$a1 5shot=$a5") }
  }
}
