package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs that start while a block runs.
  *
  * Listener events arrive asynchronously, so the listener bus is drained
  * before the count starts and after the block ends (package-private
  * API, hence this package).
  */
object JobCounter {
  def count[A](sc: SparkContext)(body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
