package org.apache.spark.perfbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work counted by a `SparkListener` since registration.
  *
  * Listener events arrive asynchronously; `snapshot` first drains the
  * context's listener bus (package-private API, hence this package), so a
  * snapshot taken after an action includes every job, stage and task that
  * action ran.
  */
final class SparkCounters private (sc: SparkContext) extends SparkListener {
  private val jobs = new AtomicLong
  private val stages = new AtomicLong
  private val tasks = new AtomicLong
  private val shuffleWriteBytes = new AtomicLong
  private val spillBytes = new AtomicLong
  private val taskRunMs = new AtomicLong
  private val taskGcMs = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      spillBytes.addAndGet(m.memoryBytesSpilled + m.diskBytesSpilled)
      taskRunMs.addAndGet(m.executorRunTime)
      taskGcMs.addAndGet(m.jvmGCTime)
    }
  }

  def snapshot(): SparkCounters.Snapshot = {
    sc.listenerBus.waitUntilEmpty()
    SparkCounters.Snapshot(jobs.get, stages.get, tasks.get, shuffleWriteBytes.get,
      spillBytes.get, taskRunMs.get, taskGcMs.get)
  }
}

object SparkCounters {

  final case class Snapshot(jobs: Long, stages: Long, tasks: Long, shuffleWriteBytes: Long,
                            spillBytes: Long, taskRunMs: Long, taskGcMs: Long) {
    def -(o: Snapshot): Snapshot = this + o.scaled(-1)

    def +(o: Snapshot): Snapshot = Snapshot(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
      shuffleWriteBytes + o.shuffleWriteBytes, spillBytes + o.spillBytes,
      taskRunMs + o.taskRunMs, taskGcMs + o.taskGcMs)

    private def scaled(k: Long): Snapshot = Snapshot(k * jobs, k * stages, k * tasks,
      k * shuffleWriteBytes, k * spillBytes, k * taskRunMs, k * taskGcMs)
  }

  def register(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters(sc)
    sc.addSparkListener(c)
    c
  }
}
