package org.apache.spark

/** Waits until the listener bus has delivered every event posted so far,
  * so a listener's counts are complete when a call returns. The bus is
  * package-private to Spark, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
