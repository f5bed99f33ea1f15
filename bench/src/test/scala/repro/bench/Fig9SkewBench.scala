package repro.bench

import repro.bench.BenchSpec.{Reps, SkewThreshold, formatTable, medianOf}
import repro.core.AdaptiveGeoBlock
import repro.workload.Workloads

/** Figure 9: base-part and skew-part runtime of V1 vs V2 as the number
  * of skewed runs grows. Level 17, aggregate threshold 25% (the paper's
  * 5%, rescaled; roughly all cells of the skewed workload), AggregateTrie
  * built after running the base workload once and the skewed workload k
  * times — the paper's protocol.
  * Paper shape: the base-part runtime stays nearly constant for both
  * versions with V1 slightly ahead (trie-probing overhead); from ~4
  * skewed runs the cached aggregates pay off and V2 pulls ahead on the
  * skew part.
  */
class Fig9SkewBench extends BenchSpec {
  import Fig9SkewBench._

  private lazy val rows = measure(fx)

  test("Fig 9 — runtime vs skew") {
    report(table(rows))
    assert(rows.map(_.skewRuns) == Seq(1, 2, 4, 8, 16))
  }

  test("shape: base-part runtime is nearly constant across skew levels") {
    def spread(xs: Seq[Double]): Double = xs.max / xs.min
    assert(spread(rows.map(_.v1BaseMs)) < 3.0)
    assert(spread(rows.map(_.v2BaseMs)) < 3.0)
  }

  test("shape: V2 wins the skew part at high skew") {
    val high = rows.find(_.skewRuns == 16).get
    assert(high.v2SkewMs < high.v1SkewMs * 1.05,
      s"V2 ${high.v2SkewMs} vs V1 ${high.v1SkewMs} at 16 skewed runs")
  }

  test("shape: V2's advantage on the skew part grows with skew") {
    val gains = rows.map(r => r.v1SkewMs / r.v2SkewMs.max(1e-4))
    assert(gains.max == gains.last || gains.last > gains.head,
      s"gain did not grow: ${gains.mkString(", ")}")
  }

  test("shape: V1 and V2 base-part runtimes stay within a small factor") {
    rows.foreach { r =>
      assert(r.v2BaseMs < r.v1BaseMs * 3,
        s"skew=${r.skewRuns}: V2 base ${r.v2BaseMs} vs V1 base ${r.v1BaseMs}")
    }
  }
}

object Fig9SkewBench {

  final case class Row(skewRuns: Int, v1BaseMs: Double, v1SkewMs: Double,
                       v2BaseMs: Double, v2SkewMs: Double)

  val SkewRuns: Seq[Int] = Seq(1, 2, 4, 8, 16)

  def measure(fx: Fixture): Seq[Row] = {
    val specs = Workloads.SevenAggs
    val base: Seq[PreparedQuery] = fx.preparedBase
    val skewOnce: Seq[PreparedQuery] =
      Workloads.skewedIndices(fx.polys.length).map(fx.preparedBase)

    SkewRuns.map { k =>
      val skewPart: Seq[PreparedQuery] = Seq.fill(k)(skewOnce).flatten

      val v1BaseMs = medianOf(Reps)(fx.runWorkload(fx.v1Select(fx.block, specs), base))
      val v1SkewMs = medianOf(Reps)(fx.runWorkload(fx.v1Select(fx.block, specs), skewPart))

      val v2 = new AdaptiveGeoBlock(fx.block)
      (base ++ skewPart).foreach(q => v2.selectCells(q.cells, specs))
      v2.buildAggregateTrie(SkewThreshold)
      val v2BaseMs = medianOf(Reps)(fx.runWorkload(fx.v2Select(v2, specs), base))
      val v2SkewMs = medianOf(Reps)(fx.runWorkload(fx.v2Select(v2, specs), skewPart))

      Row(k, v1BaseMs, v1SkewMs, v2BaseMs, v2SkewMs)
    }
  }

  def table(rows: Seq[Row]): String =
    formatTable(
      "Fig 9 — runtime vs workload skew (level 17, threshold 25% ~ paper's 5%)",
      Seq("skewRuns", "V1 base(ms)", "V1 skew(ms)", "V2 base(ms)", "V2 skew(ms)"),
      rows.map(r => Seq(
        r.skewRuns.toString,
        f"${r.v1BaseMs}%.1f", f"${r.v1SkewMs}%.1f",
        f"${r.v2BaseMs}%.1f", f"${r.v2SkewMs}%.1f")))
}
