package repro.bench

import repro.SparkSpec

/** Base for bench suites: shares the SF=0.1 fixture across all benches in
  * the run and prints each table so bench_output.txt carries the
  * reproduced numbers.
  */
trait BenchSpec extends SparkSpec {
  lazy val fx: Fixture = Fixture.shared

  def report(table: String): Unit = {
    println()
    println(table)
    println()
  }
}

/** Timing and table-formatting helpers shared by the bench suites. */
object BenchSpec {

  /** Timed repetitions per measured workload; each figure reports their
    * median.
    */
  val Reps = 3

  /** Aggregate threshold of the skew experiments (Figures 1 and 9): the
    * paper used 5%, which at their scale cached the entire skewed
    * workload. At SF=0.1 the GeoBlock header is ~10x smaller while the
    * workload covering is unchanged, so the same coverage needs ~25% —
    * the mechanism (cache exactly the skewed cells) is what is
    * reproduced. See EXPERIMENTS.md.
    */
  val SkewThreshold = 0.25

  /** Wall-clock milliseconds of `f`, with the result. */
  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    val t1 = System.nanoTime()
    (a, (t1 - t0) / 1e6)
  }

  /** Volatile sink results are folded into so the JIT cannot remove the
    * work that produced them.
    */
  @volatile var sink: Double = 0.0

  /** Warm-up of each measured closure before its timed repetitions: at
    * least this many evaluations, and for at least this long, so JIT
    * compilation and cold caches stay out of the timed samples.
    */
  val WarmupRuns = 3
  val WarmupMs   = 200.0

  /** Median of `reps` already-measured millisecond values produced by
    * repeatedly evaluating `f` (use when `f` times itself internally),
    * after warming `f` up (see [[WarmupRuns]]).
    */
  def medianOf(reps: Int)(f: => Double): Double = {
    require(reps >= 1)
    val t0   = System.nanoTime()
    var runs = 0
    while (runs < WarmupRuns || (System.nanoTime() - t0) / 1e6 < WarmupMs) {
      f // warm-up, discarded
      runs += 1
    }
    val xs = (1 to reps).map(_ => f).sorted
    xs(xs.length / 2)
  }

  /** Fixed-width ASCII table (also what EXPERIMENTS.md rows are diffed
    * against).
    */
  def formatTable(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"== $title ==", fmt(headers), sep) ++ rows.map(fmt)).mkString("\n")
  }
}
