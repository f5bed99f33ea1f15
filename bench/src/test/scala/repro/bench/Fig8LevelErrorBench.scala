package repro.bench

import repro.bench.BenchSpec.{Reps, formatTable, medianOf}
import repro.s2.CellId
import repro.workload.Workloads

/** Figure 8: relative error and query runtime of the base workload at
  * block levels 13–21. The relative error of a polygon query is
  * |covering count - exact count| / exact count, with the exact count
  * from the point-in-polygon ground truth. Like the paper's NTA
  * neighborhoods (all of which see substantial taxi traffic), the error
  * mean is taken over polygons with a meaningful number of points —
  * near-empty water/fringe tiles of the synthetic tiling would otherwise
  * let a handful of boundary tuples produce unbounded relative errors.
  * Paper shape: error falls with the level while runtime grows (almost
  * exponentially past the level 17/18 "sweet spot"), errors become
  * negligible around levels 17–18.
  */
class Fig8LevelErrorBench extends BenchSpec {
  import Fig8LevelErrorBench._

  private lazy val rows = measure(fx)

  test("Fig 8 — relative error & runtime by level") {
    report(table(rows))
    assert(rows.map(_.level) == (13 to 21))
  }

  test("shape: relative error decreases monotonically with the level") {
    val errs = rows.map(_.meanRelError)
    errs.sliding(2).foreach {
      case Seq(a, b) => assert(b <= a + 1e-9, s"error rose: $a -> $b")
      case _         => ()
    }
    assert(errs.last < errs.head / 10)
  }

  test("shape: error at the ~100m-cell sweet spot is small") {
    // Our planar grid's cells are ~2.7x coarser per level than real S2:
    // the paper's sweet spot (level 17/18, 100m/50m diagonals) maps to
    // our levels 18/19 (138m/69m). See EXPERIMENTS.md.
    val e18 = rows.find(_.level == 18).get.meanRelError
    val e19 = rows.find(_.level == 19).get.meanRelError
    assert(e18 < 0.25, s"e18=$e18")
    assert(e19 < 0.12, s"e19=$e19")
  }

  test("shape: runtime grows toward fine levels") {
    val r13 = rows.find(_.level == 13).get.runtimeMs
    val r21 = rows.find(_.level == 21).get.runtimeMs
    assert(r21 > r13 * 3, s"runtime 13=$r13 21=$r21")
  }

  test("shape: error halves per level while runtime roughly doubles") {
    val fine = rows.filter(_.level >= 17)
    fine.sliding(2).foreach {
      case Seq(a, b) =>
        val errRatio = a.meanRelError / b.meanRelError
        val rtRatio  = b.runtimeMs / a.runtimeMs
        assert(errRatio > 1.4 && errRatio < 3.5,
          s"level ${a.level}->${b.level}: error ratio $errRatio")
        assert(rtRatio > 1.3 && rtRatio < 4.0,
          s"level ${a.level}->${b.level}: runtime ratio $rtRatio")
      case _ => ()
    }
  }
}

object Fig8LevelErrorBench {

  final case class Row(level: Int, cellDiagMeters: Double,
                       runtimeMs: Double, meanRelError: Double)

  val Levels: Seq[Int] = 13 to 21

  def measure(fx: Fixture): Seq[Row] = {
    val specs = Workloads.SevenAggs
    val exact = fx.exactCounts
    Levels.map { level =>
      val block    = fx.blockAt(level)
      val prepared = fx.prepare(fx.polys, level)
      val runtime =
        medianOf(Reps)(fx.runWorkload(fx.v1Select(block, specs), prepared))
      val minCount = math.max(1L, (fx.raw.size * 0.0005).toLong)
      val errs = fx.polys.indices.flatMap { i =>
        if (exact(i) < minCount) None
        else {
          val measured = block.selectCells(prepared(i).cells, Array.empty).count
          Some(math.abs(measured - exact(i)).toDouble / exact(i))
        }
      }
      val diag = CellId.fromPoint(-73.97, 40.75, level).diagonalMeters
      Row(level, diag, runtime, errs.sum / errs.length)
    }
  }

  def table(rows: Seq[Row]): String =
    formatTable(
      "Fig 8 — relative error & base-workload runtime vs block level",
      Seq("level", "cellDiag(m)", "runtime(ms)", "meanRelError"),
      rows.map(r => Seq(
        r.level.toString,
        f"${r.cellDiagMeters}%.1f",
        f"${r.runtimeMs}%.1f",
        f"${r.meanRelError}%.4f")))
}
