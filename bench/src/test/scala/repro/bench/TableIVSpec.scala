package repro.bench

import repro.SparkSpec
import repro.exp.LinkPred
import repro.exp.Experiments.tableIV

/** Table IV — link prediction on the OpenBG500 / OpenBG500-L analogs.
  * Shape (paper III-C): TuckER beats the bilinear family on OpenBG500
  * Hits@1 (the paper's is best overall; EXPERIMENTS.md deviation 1);
  * KG-BERT weak Hits but far better MR; on the large version vanilla
  * TransE leads the pack.
  */
class TableIVSpec extends SparkSpec {
  import BenchFixtures._

  lazy val (r500, r500L) = tableIV.compute(inputs)
  lazy val by500: Map[String, repro.kge.Evaluator.Metrics] =
    r500.map(r => r.model -> r.metrics).toMap
  lazy val by500L: Map[String, repro.kge.Evaluator.Metrics] =
    r500L.map(r => r.model -> r.metrics).toMap

  test("Table IV: run both datasets and report vs the paper") {
    record(tableIV, (r500, r500L))
  }

  test("Table IV shape: translational beats bilinear on OpenBG500 (MRR)") {
    val trans = Seq("TransE", "TransH", "TransD").map(by500(_).mrr).min
    val bil = Seq("DistMult", "ComplEx").map(by500(_).mrr).max
    assert(trans > bil, s"trans=$trans bil=$bil")
  }

  test("Table IV shape: TuckER beats the bilinear family on Hits@1 on OpenBG500") {
    assert(by500("TuckER").hits1 >= Seq("DistMult", "ComplEx").map(by500(_).hits1).max)
  }

  test("Table IV shape: KG-BERT trades Hits for far better MR on OpenBG500") {
    // Paper: KG-BERT MR 401 vs 2.5k-6.5k for the embedding models.
    assert(by500("KG-BERT").hits1 < Seq("TransE", "TransH", "TransD").map(by500(_).hits1).max)
    assert(by500("KG-BERT").mr < by500("DistMult").mr / 2)
    assert(by500("KG-BERT").mr < by500("TransE").mr)
  }

  test("Table IV shape: GenKGC has competitive Hits@1 but flat Hits@10") {
    val g = by500("GenKGC")
    // beam truncation: hits10/hits1 ratio well below TransE's
    val gRatio = if (g.hits1 > 0) g.hits10 / g.hits1 else Double.MaxValue
    val tRatio = by500("TransE").hits10 / math.max(1e-9, by500("TransE").hits1)
    assert(gRatio < tRatio || g.hits10 < by500("TransE").hits10)
  }

  test("Table IV shape: on OpenBG500-L vanilla TransE leads MRR") {
    val others = LinkPred.models500L.filterNot(_ == "TransE")
    assert(by500L("TransE").mrr >= others.map(by500L(_).mrr).max * 0.95,
      s"TransE=${by500L("TransE").mrr}")
  }

  test("Table IV shape: DistMult collapses on OpenBG500-L (paper: 0.012 Hits@1)") {
    assert(by500L("DistMult").mrr < by500L("TransE").mrr * 0.6)
  }
}
