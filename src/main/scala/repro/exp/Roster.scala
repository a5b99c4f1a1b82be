package repro.exp

import java.util.concurrent.{Callable, ExecutionException, ExecutorCompletionService, Executors, Future, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

/** Runs a roster of independent tasks (link-prediction models, downstream
  * classifier fits) on one pool of threads in the calling JVM.
  */
object Roster {

  /** Runs `tasks` on `min(tasks, cores)` daemon threads named
    * `name-<n>` and returns their results in roster order.
    *
    * The tasks are submitted in `order` (a permutation of their indices,
    * longest first), after the `prerequisites`: tasks whose results are
    * discarded and which the roster's tasks wait for through values of
    * their own (e.g. lazy values the prerequisites force). The pool takes
    * work first in, first out, so every prerequisite has started before
    * any task does, and a task that waits for one never waits for work
    * still queued. The first task or prerequisite to fail cancels the
    * others, and its own exception is rethrown as is. The pool is shut
    * down and its threads have ended when this returns, with or without
    * an exception.
    */
  def run[A](name: String, tasks: Seq[() => A], order: Seq[Int],
             prerequisites: Seq[() => Any] = Nil): Seq[A] = {
    require(order.sorted == tasks.indices, s"order is not a permutation of the ${tasks.size} tasks")
    val threads = math.max(1, math.min(prerequisites.size + tasks.size,
      Runtime.getRuntime.availableProcessors))
    val count = new AtomicInteger()
    val pool = Executors.newFixedThreadPool(threads, r => {
      val t = new Thread(r, s"$name-${count.incrementAndGet()}")
      t.setDaemon(true)
      t
    })
    try {
      val done = new ExecutorCompletionService[Any](pool)
      def submit(body: () => Any): Future[Any] = done.submit(new Callable[Any] {
        def call(): Any = body()
      })
      val before = prerequisites.map(submit)
      val submitted = order.map(i => i -> submit(tasks(i))).sortBy(_._1).map(_._2)
      val all = before ++ submitted
      // Wait in completion order, so the first failure surfaces at once.
      try all.foreach(_ => done.take().get())
      catch {
        case e: ExecutionException =>
          all.foreach(_.cancel(true))
          throw e.getCause
      }
      submitted.map(_.get().asInstanceOf[A])
    } finally {
      pool.shutdown()
      pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS)
    }
  }
}
