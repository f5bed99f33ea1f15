package repro.perfbench

import scala.collection.mutable.ArrayBuffer

final case class Metric(name: String, value: Double, unit: String)

/** What one run prints: readable lines, then the result as one JSON
  * object on the last line of standard output.
  */
final class Report(val workload: String) {
  val notes: ArrayBuffer[String]   = ArrayBuffer.empty
  val metrics: ArrayBuffer[Metric] = ArrayBuffer.empty
  val errors: ArrayBuffer[String]  = ArrayBuffer.empty
  var attempted = 0L
  var failed    = 0L

  def correct: Boolean = errors.isEmpty && failed == 0 && attempted > 0

  def note(s: String): Unit = notes += s
  def error(s: String): Unit = errors += s
  def add(name: String, value: Double, unit: String): Unit = {
    if (value.isNaN || value.isInfinite) error(s"metric $name is not finite")
    metrics += Metric(name, value, unit)
  }

  def print(): Unit = {
    println(s"== perfbench $workload ==")
    notes.foreach(n => println(s"  $n"))
    errors.take(20).foreach(e => println(s"  FAILED: $e"))
    if (errors.length > 20) println(s"  FAILED: ... ${errors.length - 20} more")
    val ff = if (attempted == 0) 1.0 else failed.toDouble / attempted
    println(f"  ${"failed_frac"}%-44s $ff ratio ($failed of $attempted ops)")
    metrics.foreach(m => println(f"  ${m.name}%-44s ${m.value} ${m.unit}"))
    def num(v: Double) = if (v.isNaN || v.isInfinite) "null" else v.toString
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}""")
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Linear-interpolated quantile of the first `n` values. */
  def quantile(values: Array[Long], n: Int, q: Double): Double = {
    if (n == 0) return Double.NaN
    val s = java.util.Arrays.copyOf(values, n)
    java.util.Arrays.sort(s)
    val pos = q * (n - 1)
    val lo  = pos.toInt
    val hi  = math.min(n - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** The tail percentile reported as "p99": 0.99 when at least ten
    * samples lie beyond it, else the highest quantile that has ten beyond
    * it, else the maximum.
    */
  def tailQuantile(n: Int): Double =
    if (n <= 10) 1.0 else math.min(0.99, 1.0 - 10.0 / n)
}
