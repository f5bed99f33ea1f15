package repro.bench

import repro.bench.BenchSpec.{Reps, SkewThreshold, formatTable, medianOf}
import repro.core.AdaptiveGeoBlock
import repro.workload.Workloads

/** Figure 1: total runtime of the combined workload (base + 4 skewed
  * runs) for 1, 2, 4 and 8 requested aggregates, per engine. The PHTree
  * is omitted, as in the paper (it cannot represent the biased workload
  * and was ~3x slower than the other baselines on the base part).
  * Paper shape: Blocks beat BTree/BinarySearch by ~2 orders of magnitude
  * for every aggregate count, and the aggregate count is not a highly
  * influential factor for any engine.
  */
class Fig1NumAggregatesBench extends BenchSpec {
  import Fig1NumAggregatesBench._

  private lazy val rows = measure(fx)

  test("Fig 1 — runtime vs number of aggregates") {
    report(table(rows))
    assert(rows.map(_.numAggs) == Seq(1, 2, 4, 8))
  }

  test("shape: blocks outperform both on-the-fly baselines for all aggregate counts") {
    // The paper's gap is ~100x at 12M rows; at SF=0.1 the tuples-per-cell
    // ratio (and hence the gap) compresses — see EXPERIMENTS.md.
    rows.foreach { r =>
      assert(r.v1Ms * 1.5 < r.bsMs, s"aggs=${r.numAggs}: V1 ${r.v1Ms} vs BS ${r.bsMs}")
      assert(r.v1Ms * 1.5 < r.btMs, s"aggs=${r.numAggs}: V1 ${r.v1Ms} vs BT ${r.btMs}")
    }
    // the gap widens with more aggregates (baselines touch raw tuples)
    val last = rows.last
    assert(last.v1Ms * 3 < last.bsMs, s"V1 ${last.v1Ms} vs BS ${last.bsMs} at 8 aggs")
  }

  test("shape: number of aggregates is not a highly influential factor") {
    // runtime from 1 to 8 aggregates grows by well under an order of magnitude
    def growth(f: Row => Double): Double = f(rows.last) / f(rows.head)
    assert(growth(_.v1Ms) < 6.0)
    assert(growth(_.bsMs) < 6.0)
    assert(growth(_.btMs) < 6.0)
  }

  test("shape: V2 stays competitive and beats the on-the-fly baselines") {
    rows.drop(1).foreach { r => // at 1 aggregate (COUNT) baselines do minimal work
      assert(r.v2Ms < r.bsMs, s"aggs=${r.numAggs}: V2 ${r.v2Ms} vs BS ${r.bsMs}")
      assert(r.v2Ms < r.v1Ms * 3, s"aggs=${r.numAggs}: V2 ${r.v2Ms} vs V1 ${r.v1Ms}")
    }
  }
}

object Fig1NumAggregatesBench {

  final case class Row(numAggs: Int, v1Ms: Double, v2Ms: Double,
                       bsMs: Double, btMs: Double)

  val AggCounts: Seq[Int] = Seq(1, 2, 4, 8)

  /** Skewed runs appended to the base workload. */
  val SkewRuns = 4

  def measure(fx: Fixture): Seq[Row] = {
    val order   = Workloads.combined(fx.polys.length, SkewRuns)
    val queries = order.map(fx.preparedBase)

    AggCounts.map { k =>
      val specs = Workloads.aggSubset(k)
      // V2: collect stats over the same workload, then cache aggregates.
      val v2 = new AdaptiveGeoBlock(fx.block)
      queries.foreach(q => v2.selectCells(q.cells, specs))
      v2.buildAggregateTrie(SkewThreshold)

      val v1Ms = medianOf(Reps)(fx.runWorkload(fx.v1Select(fx.block, specs), queries))
      val v2Ms = medianOf(Reps)(fx.runWorkload(fx.v2Select(v2, specs), queries))
      val bsMs = medianOf(Reps)(fx.runWorkload(fx.bsSelect(specs), queries))
      val btMs = medianOf(Reps)(fx.runWorkload(fx.btSelect(specs), queries))
      Row(k, v1Ms, v2Ms, bsMs, btMs)
    }
  }

  def table(rows: Seq[Row]): String =
    formatTable(
      "Fig 1 — combined-workload runtime vs number of aggregates",
      Seq("aggs", "BlocksV1(ms)", "BlocksV2(ms)", "BinarySearch(ms)", "BTree(ms)"),
      rows.map(r => Seq(
        r.numAggs.toString,
        f"${r.v1Ms}%.1f", f"${r.v2Ms}%.1f", f"${r.bsMs}%.1f", f"${r.btMs}%.1f")))
}
