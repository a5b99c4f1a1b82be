package repro.perfbench

import java.lang.management.ManagementFactory

/** Live heap at the end of a timed unit: occupancy after a full
  * collection, while the unit's results and Spark's cached blocks are
  * still reachable. Occupancy sampled without a full collection depends
  * on when the collector last ran (it moved by more than 2x between two
  * runs of one workload); after a full collection it is what the program
  * keeps reachable.
  */
object HeapPeak {
  def liveMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
