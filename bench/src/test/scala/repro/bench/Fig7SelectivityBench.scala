package repro.bench

import repro.bench.BenchSpec.{formatTable, medianOf}
import repro.core.AdaptiveGeoBlock
import repro.workload.Workloads

/** Figure 7: per-query runtime at varying polygon selectivity, for all
  * engines. Selectivity polygons are rectangles around the data centroid
  * containing a target fraction of the rides; PHTree/RTree query the
  * interior rectangle (and thus see slightly lower selectivity), as in
  * the paper. V2 uses a 2% aggregate threshold with statistics from one
  * unskewed pass, matching the paper's setting.
  * Paper shape: GeoBlocks beat the on-the-fly baselines by 2–4 orders of
  * magnitude, their runtime rises only softly with selectivity, the RTree
  * (aR-tree emulation) beats the on-the-fly baselines but trails the
  * Blocks and narrows at high selectivity, and the PHTree drops behind.
  */
class Fig7SelectivityBench extends BenchSpec {
  import Fig7SelectivityBench._

  private lazy val rows = measure(fx)

  test("Fig 7 — query runtime vs selectivity") {
    report(table(rows))
    assert(rows.nonEmpty)
  }

  test("shape: blocks beat on-the-fly baselines at every selectivity") {
    rows.foreach { r =>
      assert(r.v1Ms < r.bsMs, s"sel=${r.targetSel}: V1 ${r.v1Ms} vs BS ${r.bsMs}")
      assert(r.v1Ms < r.btMs, s"sel=${r.targetSel}: V1 ${r.v1Ms} vs BT ${r.btMs}")
    }
    rows.filter(_.targetSel >= 0.05).foreach { r =>
      assert(r.v1Ms * 5 < r.bsMs, s"sel=${r.targetSel}: V1 ${r.v1Ms} vs BS ${r.bsMs}")
    }
  }

  test("shape: the gap is orders of magnitude at high selectivity") {
    val high = rows.last
    assert(high.v1Ms * 20 < high.bsMs,
      s"V1 ${high.v1Ms} vs BS ${high.bsMs} at sel=${high.targetSel}")
  }

  test("shape: baseline runtime rises much faster with selectivity than blocks") {
    val lo = rows.head
    val hi = rows.last
    val bsGrowth = hi.bsMs / lo.bsMs.max(1e-4)
    val v1Growth = hi.v1Ms / lo.v1Ms.max(1e-4)
    assert(bsGrowth > v1Growth, s"bsGrowth=$bsGrowth v1Growth=$v1Growth")
  }

  test("shape: RTree (aR-tree) beats the on-the-fly baselines") {
    rows.drop(2).foreach { r => // at the tiniest selectivities all engines are ~free
      assert(r.rtMs < r.bsMs, s"sel=${r.targetSel}: RT ${r.rtMs} vs BS ${r.bsMs}")
    }
  }

  test("shape: PHTree falls behind at high selectivity") {
    val high = rows.last
    assert(high.phMs > high.v1Ms, s"PH ${high.phMs} vs V1 ${high.v1Ms}")
  }
}

object Fig7SelectivityBench {

  final case class Row(targetSel: Double, achievedSel: Double,
                       v1Ms: Double, v2Ms: Double, bsMs: Double,
                       btMs: Double, phMs: Double, rtMs: Double)

  val Fracs: Seq[Double] = Seq(0.001, 0.005, 0.01, 0.05, 0.10, 0.25, 0.50)

  /** The paper's aggregate threshold for this experiment. */
  val Threshold = 0.02

  /** Timed repetitions per single-query measurement; more than
    * [[BenchSpec.Reps]] because one query takes microseconds.
    */
  val Reps = 5

  def measure(fx: Fixture): Seq[Row] = {
    val specs = Workloads.SevenAggs
    val selPolys = Fracs.map { f =>
      val (poly, achieved) = Workloads.selectivityRect(fx.raw.lons, fx.raw.lats, f)
      (f, PreparedQuery(poly, fx.DefaultLevel), achieved)
    }
    // V2 warm-up: one pass over the selectivity polygons, then cache.
    val v2 = new AdaptiveGeoBlock(fx.block)
    selPolys.foreach { case (_, q, _) => v2.selectCells(q.cells, specs) }
    v2.buildAggregateTrie(Threshold)

    selPolys.map { case (f, poly, achieved) =>
      def one(engine: PreparedQuery => Double): Double =
        medianOf(Reps)(fx.runWorkload(engine, Seq(poly)))
      Row(f, achieved,
        one(fx.v1Select(fx.block, specs)),
        one(fx.v2Select(v2, specs)),
        one(fx.bsSelect(specs)),
        one(fx.btSelect(specs)),
        one(fx.phSelect(specs)),
        one(fx.rtCount))
    }
  }

  def table(rows: Seq[Row]): String =
    formatTable(
      "Fig 7 — per-query runtime vs selectivity (level 17)",
      Seq("sel", "achieved", "BlocksV1(ms)", "BlocksV2(ms)", "BinarySearch(ms)",
          "BTree(ms)", "PHTree(ms)", "RTree(ms)"),
      rows.map(r => Seq(
        f"${r.targetSel * 100}%.1f%%",
        f"${r.achievedSel * 100}%.2f%%",
        f"${r.v1Ms}%.3f", f"${r.v2Ms}%.3f", f"${r.bsMs}%.3f",
        f"${r.btMs}%.3f", f"${r.phMs}%.3f", f"${r.rtMs}%.3f")))
}
