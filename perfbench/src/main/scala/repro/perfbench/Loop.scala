package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Latencies and failures of one closed-loop run.
  *
  * The run is cut into windows of [[LoopResult.WindowNs]] by completion
  * time. Rate, median and tail are computed per window and reported as
  * their median over the full windows: on a shared machine, other
  * tenants take the CPU away in bursts of a fraction of a second, and a
  * burst then moves one window instead of the whole run.
  */
final class LoopResult(numDistinct: Int) {
  private var lat  = new Array[Long](1 << 16)
  private var ends = new Array[Long](1 << 16) // completion time since the start
  var n            = 0
  /** Timed executions per distinct query. */
  val executed     = new Array[Long](numDistinct)
  var failedOps    = 0L
  val errors       = ArrayBuffer.empty[String]
  var elapsedNs    = 0L
  var allocBytes   = 0L
  var gcMs         = 0L

  def record(q: Int, ns: Long, end: Long): Unit = {
    if (n == lat.length) {
      lat = java.util.Arrays.copyOf(lat, 2 * n)
      ends = java.util.Arrays.copyOf(ends, 2 * n)
    }
    lat(n) = ns
    ends(n) = end
    if (q >= 0) executed(q) += 1
    n += 1
  }

  def fail(msg: String): Unit = {
    failedOps += 1
    if (errors.length < 20) errors += msg
  }

  def finish(elapsed: Long, allocated: Long, collectorMs: Long): Unit = {
    elapsedNs = elapsed
    allocBytes = allocated
    gcMs = collectorMs
  }

  /** Latencies of each full window, in order. */
  private lazy val windows: Seq[Array[Long]] = {
    val full = (elapsedNs / LoopResult.WindowNs).toInt
    val out  = Array.fill(full)(ArrayBuffer.empty[Long])
    var i = 0
    while (i < n) {
      val w = (ends(i) / LoopResult.WindowNs).toInt
      if (w < full) out(w) += lat(i)
      i += 1
    }
    out.toSeq.map(_.toArray)
  }

  def numWindows: Int = windows.length

  def windowCounts: Seq[Int] = windows.map(_.length)

  /** Median over the windows in which some operation completed. */
  private def perWindow(f: Array[Long] => Double): Double = {
    val busy = windows.filter(_.nonEmpty)
    if (busy.isEmpty) f(java.util.Arrays.copyOf(lat, n)) else Stats.median(busy.map(f))
  }

  /** Median over windows of completed operations per second. */
  def perSecond: Double =
    if (windows.isEmpty) n / (elapsedNs / 1e9)
    else Stats.median(windows.map(_.length / (LoopResult.WindowNs / 1e9)))

  /** Queries per second of time spent inside them, for loops that share
    * their wall time with another loop.
    */
  def perBusySecond: Double = n / (lat.iterator.take(n).sum / 1e9)

  def p50Us: Double = perWindow(w => Stats.quantile(w, w.length, 0.5)) / 1e3

  /** Median over windows of each window's tail quantile, see [[tailQ]]. */
  def tailUs: Double = perWindow(w => Stats.quantile(w, w.length, Stats.tailQuantile(w.length))) / 1e3

  def minWindowSamples: Int = if (windows.isEmpty) n else windows.map(_.length).min

  /** The tail quantile of the smallest window. */
  def tailQ: Double = Stats.tailQuantile(minWindowSamples)
}

object LoopResult {
  val WindowNs: Long = 500000000L
}

/** Bytes allocated by the measuring thread and collector time, since
  * [[JvmCounters.start]].
  */
final class JvmCounters private (alloc0: Long, gc0: Long) {
  def allocatedBytes: Long = JvmCounters.threadAllocated() - alloc0
  def gcMs: Long           = JvmCounters.gcTotalMs() - gc0
}

object JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  private def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  private def gcTotalMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  def start(): JvmCounters = {
    val gc = gcTotalMs() // read first: reading it allocates
    new JvmCounters(threadAllocated(), gc)
  }
}
