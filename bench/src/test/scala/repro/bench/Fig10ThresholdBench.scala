package repro.bench

import repro.bench.BenchSpec.{Reps, formatTable, medianOf}
import repro.core.AdaptiveGeoBlock
import repro.workload.Workloads

/** Figure 10: influence of the aggregate threshold (AggregateTrie size as
  * a fraction of the GeoBlock header) on the base- and skew-part runtime
  * of V2, with V1 as the unaffected reference. Level 17, 4 skewed runs.
  * Paper shape: up to ~5% only skew-workload cells are cached (skew part
  * speeds up first); larger thresholds start caching base-workload cells
  * too, until at ~50% the whole workload is cached and further memory
  * brings no speedup.
  */
class Fig10ThresholdBench extends BenchSpec {
  import Fig10ThresholdBench._

  private lazy val res = measure(fx)

  test("Fig 10 — threshold influence") {
    report(table(res))
    assert(res.rows.length == Thresholds.length)
  }

  test("shape: cached-cell count grows with the threshold until every workload cell is cached") {
    val counts = res.rows.map(_.aggregatedCells)
    assert(counts == counts.sorted, s"not monotone: $counts")
    // saturation: at the largest threshold the whole workload is cached
    assert(res.rows.last.aggregatedCells == res.totalCandidates,
      s"${res.rows.last.aggregatedCells} cached of ${res.totalCandidates} workload cells")
  }

  test("shape: the skew part speeds up once the skewed cells fit (~25% here, 5% in the paper)") {
    // Coverage point rescaled: our header is ~10x smaller than the
    // paper's while the workload covering is unchanged (EXPERIMENTS.md).
    val fit    = res.rows.filter(_.thresholdPct >= 25.0)
    val before = res.rows.head
    assert(fit.map(_.v2SkewMs).min < before.v2SkewMs,
      s"skew part never sped up: before ${before.v2SkewMs}, after fit ${fit.map(_.v2SkewMs).min}")
    assert(fit.map(_.v2SkewMs).min < res.v1SkewMs * 1.05,
      s"V2@fit ${fit.map(_.v2SkewMs).min} vs V1 ${res.v1SkewMs}")
  }

  test("shape: large thresholds speed up the base workload as well") {
    val large = res.rows.last
    val small = res.rows.head
    assert(large.v2BaseMs < small.v2BaseMs * 1.05,
      s"base not sped up: ${small.v2BaseMs} -> ${large.v2BaseMs}")
    assert(large.v2BaseMs < res.v1BaseMs * 1.25,
      s"V2@max ${large.v2BaseMs} vs V1 ${res.v1BaseMs}")
  }

  test("shape: no further speedup once everything is cached") {
    val last = res.rows.takeRight(2)
    val a = last(0); val b = last(1)
    assert(b.v2SkewMs < a.v2SkewMs * 1.5 && b.v2BaseMs < a.v2BaseMs * 1.5)
  }
}

object Fig10ThresholdBench {

  final case class Row(thresholdPct: Double, v2BaseMs: Double, v2SkewMs: Double,
                       aggregatedCells: Int)

  val Thresholds: Seq[Double] = Seq(0.005, 0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00, 2.00)

  /** Skewed runs appended to the base workload. */
  val SkewRuns = 4

  /** Passes over a workload part per timed sample: one pass of the skew
    * part takes about 1 ms, too short for a stable median.
    */
  val Passes = 30

  final case class Result(v1BaseMs: Double, v1SkewMs: Double, rows: Seq[Row],
                          totalCandidates: Int)

  def measure(fx: Fixture): Result = {
    val specs = Workloads.SevenAggs
    val base: Seq[PreparedQuery] = fx.preparedBase
    val skewPart: Seq[PreparedQuery] =
      Seq.fill(SkewRuns)(Workloads.skewedIndices(fx.polys.length).map(fx.preparedBase)).flatten

    // Milliseconds per pass over a part, timed over `Passes` passes.
    def perPass(engine: PreparedQuery => Double, part: Seq[PreparedQuery]): Double =
      medianOf(Reps)(fx.runWorkload(engine, Seq.fill(Passes)(part).flatten)) / Passes

    val v1BaseMs = perPass(fx.v1Select(fx.block, specs), base)
    val v1SkewMs = perPass(fx.v1Select(fx.block, specs), skewPart)

    var candidates = 0
    val rows = Thresholds.map { th =>
      val v2 = new AdaptiveGeoBlock(fx.block)
      (base ++ skewPart).foreach(q => v2.selectCells(q.cells, specs))
      candidates = v2.stats.candidates.count(_.cell.level <= fx.block.blockLevel)
      val trie = v2.buildAggregateTrie(th)
      val v2BaseMs = perPass(fx.v2Select(v2, specs), base)
      val v2SkewMs = perPass(fx.v2Select(v2, specs), skewPart)
      Row(th * 100, v2BaseMs, v2SkewMs, trie.numAggregates)
    }
    Result(v1BaseMs, v1SkewMs, rows, candidates)
  }

  def table(res: Result): String = {
    val ref = Seq(Seq("V1 (ref)",
      f"${res.v1BaseMs}%.1f", f"${res.v1SkewMs}%.1f", "-"))
    formatTable(
      s"Fig 10 — aggregate-threshold influence (level 17, $SkewRuns skewed runs, " +
        s"${res.totalCandidates} workload cells)",
      Seq("threshold", "base(ms)", "skew(ms)", "cachedCells"),
      ref ++ res.rows.map(r => Seq(
        f"${r.thresholdPct}%.1f%%",
        f"${r.v2BaseMs}%.1f", f"${r.v2SkewMs}%.1f",
        r.aggregatedCells.toString)))
  }
}
