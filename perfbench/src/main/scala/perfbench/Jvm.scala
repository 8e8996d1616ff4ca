package perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

/** JVM-level probes read from `java.lang.management`: bytes allocated by
  * the calling thread, collector counts and times, and the live heap.
  */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val memory = ManagementFactory.getMemoryMXBean

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
  def gcCount(): Long = collectors.map(_.getCollectionCount).sum
  def gcMillis(): Long = collectors.map(_.getCollectionTime).sum

  /** Heap in use after a full collection: what the process keeps live at
    * this point, in bytes.
    */
  def liveBytes(): Long = {
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }
}
