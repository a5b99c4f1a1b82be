package repro.perfbench

import org.apache.spark.perfbench.SparkCounters
import repro.jobs.JobSession

/** Self-tests of the harness: `python3 perfbench/run.py --self-test`.
  * Exits non-zero if any test fails.
  */
object SelfTest {

  private var failed = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") } catch {
      case e: Throwable => failed += 1; println(s"FAIL $name: $e")
    }

  private def expect(cond: Boolean, what: => String): Unit =
    if (!cond) throw new AssertionError(what)

  def main(args: Array[String]): Unit = {
    test("self time subtracts nested children once, clipped to the parent") {
      // root [0,100) has children [10,30) and [20,50) (overlapping) and
      // [90,120) (clipped to [90,100)); child [10,30) has a child [12,18).
      val spans = Seq(
        Span(0, -1, "root", 0, 100),
        Span(1, 0, "a", 10, 30),
        Span(2, 0, "b", 20, 50),
        Span(3, 0, "c", 90, 120),
        Span(4, 1, "a1", 12, 18))
      val self = Trace.selfTimes(spans)
      expect(self(0) == 100 - 40 - 10, s"root self ${self(0)}")
      expect(self(1) == 20 - 6, s"a self ${self(1)}")
      expect(self(2) == 30 && self(3) == 30 && self(4) == 6, s"leaf self $self")
    }

    test("Trace records nesting and sums spans by name; disabled trace records nothing") {
      val t = new Trace(true)
      t.span("outer") { t.span("inner")(()); t.span("inner")(()) }
      val s = t.spans
      expect(s.map(_.name).sorted == Seq("inner", "inner", "outer"), s"$s")
      val outer = s.find(_.name == "outer").get
      expect(s.filter(_.name == "inner").forall(_.parent == outer.id), s"$s")
      expect(t.calls("inner") == 2 && t.seconds("inner") <= t.seconds("outer"), s"$s")
      val off = new Trace(false)
      expect(off.span("x")(41) + 1 == 42 && off.spans.isEmpty, "disabled trace")
    }

    test("metric names must match [A-Za-z0-9][A-Za-z0-9_.-]{0,63}") {
      Seq("wall_s", "kge.Trainer.train.KG-BERT.wall_s", "spark.busy_frac", "9a", "a" * 64)
        .foreach(n => expect(Names.valid(n), s"rejected $n"))
      Seq("", "_x", ".x", "-x", "has space", "a/b", "mPLUG-base+KG", "a" * 65, "ü")
        .foreach(n => expect(!Names.valid(n), s"accepted $n"))
      val m = new MetricSet
      m.put("a.b", 1.0, "s")
      expect(scala.util.Try(m.put("a.b", 2.0, "s")).isFailure, "duplicate accepted")
      expect(scala.util.Try(m.put("bad name", 2.0, "s")).isFailure, "bad name accepted")
      expect(scala.util.Try(m.put("nan", Double.NaN, "s")).isFailure, "NaN accepted")
      Catalog.perLayer.map(_._1).foreach(n => expect(Names.valid(n), s"catalog name $n"))
      val names = (Catalog.perLayer ++ Catalog.endToEnd).map(_._1)
      expect(names.distinct.size == names.size, "catalog names repeat")
    }

    test("SparkListener counters match queries of known shape") {
      val spark = JobSession.spark("perfbench-selftest")
      val c = SparkCounters.register(spark.sparkContext)
      val sc = spark.sparkContext
      val s0 = c.snapshot()
      sc.parallelize(1 to 100, 4).count()
      val s1 = c.snapshot()
      val d1 = s1 - s0
      expect(d1.jobs == 1 && d1.stages == 1 && d1.tasks == 4 && d1.shuffleWriteBytes == 0,
        s"count over 4 partitions: $d1")
      sc.parallelize(1 to 1000, 4).map(i => (i % 7, 1)).reduceByKey(_ + _, 3).collect()
      val d2 = c.snapshot() - s1
      expect(d2.jobs == 1 && d2.stages == 2 && d2.tasks == 4 + 3 && d2.shuffleWriteBytes > 0,
        s"reduceByKey 4 -> 3 partitions: $d2")
      spark.stop()
    }

    println(if (failed == 0) "self-test: all passed" else s"self-test: $failed failed")
    sys.exit(if (failed == 0) 0 else 1)
  }
}
