package repro.exp

import java.util.concurrent.atomic.AtomicInteger

import org.scalatest.funsuite.AnyFunSuite

/** Tests of the shared task pool: roster order, prerequisites, failures,
  * and that no pool thread outlives a run.
  */
class RosterSpec extends AnyFunSuite {

  private def poolThreads(name: String): Seq[String] =
    Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread]).toSeq
      .filter(t => t.getName.startsWith(s"$name-") && t.isAlive).map(_.getName)

  test("results come back in roster order from a shuffled submission order") {
    val runs = new AtomicInteger
    val order = new scala.util.Random(7).shuffle((0 until 12).toList)
    assert(order !== order.sorted)
    val out = Roster.run("roster-order",
      (0 until 12).map(i => () => { runs.incrementAndGet(); Thread.sleep(12 - i); i * i }), order)
    assert(out === (0 until 12).map(i => i * i))
    assert(runs.get === 12)
    assert(poolThreads("roster-order").isEmpty)
  }

  test("tasks read a prerequisite's lazy value, which is built once") {
    val builds = new AtomicInteger
    lazy val shared = { builds.incrementAndGet(); Thread.sleep(50); Seq(1, 2, 3) }
    val out = Roster.run("roster-prereq", (0 until 8).map(i => () => shared.sum + i), 0 until 8,
      prerequisites = Seq(() => shared))
    assert(out === (0 until 8).map(_ + 6))
    assert(builds.get === 1)
    assert(poolThreads("roster-prereq").isEmpty)
  }

  test("a failing task's own exception comes back unwrapped, and no pool thread is left") {
    val boom = new IllegalStateException("boom")
    val tasks = (0 until 8).map(i => () => {
      if (i == 5) throw boom
      Thread.sleep(20)
      i
    })
    val e = intercept[IllegalStateException](Roster.run("roster-fail", tasks, tasks.indices))
    assert(e eq boom)
    assert(poolThreads("roster-fail").isEmpty)
  }

  test("a failing prerequisite fails the run with its own exception") {
    val e = intercept[ArithmeticException](Roster.run("roster-prereq-fail",
      Seq(() => 1), Seq(0), prerequisites = Seq(() => 1 / 0)))
    assert(e.getMessage === "/ by zero")
    assert(poolThreads("roster-prereq-fail").isEmpty)
  }

  test("an order that is not a permutation of the tasks is rejected") {
    intercept[IllegalArgumentException](Roster.run("roster-bad", Seq(() => 1, () => 2), Seq(0, 0)))
    assert(poolThreads("roster-bad").isEmpty)
  }
}
