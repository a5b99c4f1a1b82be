package repro.bench

import repro.SparkSpec
import repro.exp.Experiments.tableVII

/** Table VII — low-resource (1/5-shot) NER for titles.
  * Shape (paper IV-C): mPLUG-base collapses in 1-shot; the +KG gazetteer
  * rescues it; the large +KG variant is the best overall.
  */
class TableVIISpec extends SparkSpec {
  import BenchFixtures._

  lazy val rows: Seq[(String, Double, Double)] = tableVII.compute(inputs)
  lazy val by: Map[String, (Double, Double)] = rows.map(r => r._1 -> (r._2, r._3)).toMap

  test("Table VII: run 1/5-shot NER and report vs the paper") {
    record(tableVII, rows)
  }

  test("Table VII shape: KG gazetteer rescues mPLUG-base in 1-shot") {
    assert(by("mPLUG-base+KG")._1 > by("mPLUG-base")._1,
      s"kg=${by("mPLUG-base+KG")._1} base=${by("mPLUG-base")._1}")
  }

  test("Table VII shape: mPLUG-large+KG is best in both settings") {
    val others = rows.filterNot(_._1 == "mPLUG-large+KG")
    assert(by("mPLUG-large+KG")._1 >= others.map(_._2).max * 0.95)
    assert(by("mPLUG-large+KG")._2 >= others.map(_._3).max * 0.95)
  }

  test("Table VII shape: 5-shot improves on 1-shot") {
    rows.foreach { case (m, f1, f5) => assert(f5 >= f1 - 1.0, s"$m: $f1 vs $f5") }
  }
}
