package repro.bench

import repro.bench.BenchSpec.{formatTable, timeMs}
import repro.core.GeoBlock
import repro.s2.CellId

/** Table 1: index build times (sorting vs building) at block levels
  * 13–21, plus Figure 6c's size column.
  *
  * Sorting is the Spark extract-and-reorganize phase, measured once — in
  * this reproduction the sort key is always the level-30 leaf key, so
  * unlike the paper's implementation (which piggybacks level-dependent
  * cell extraction onto the sort) sorting does not vary with the level;
  * see EXPERIMENTS.md.
  */
class Table1BuildTimesBench extends BenchSpec {
  import Table1BuildTimesBench._

  private lazy val rows = measure(fx)

  test("Table 1 — build time split by level") {
    report(table(rows))
    assert(rows.map(_.level) == (13 to 21))
  }

  test("shape: sorting dominates building at every level (paper: ~6-7s vs ~0.4-1s)") {
    rows.foreach { r =>
      assert(r.sortMs > r.buildMs,
        s"level ${r.level}: sorting ${r.sortMs} <= building ${r.buildMs}")
    }
  }

  test("shape: building grows toward the finest levels (paper: 376ms@13 -> 1025ms@21)") {
    val b13 = rows.find(_.level == 13).get.buildMs
    val b21 = rows.find(_.level == 21).get.buildMs
    assert(b21 > b13, s"building at 21 ($b21) not above 13 ($b13)")
  }

  test("shape: header size grows superlinearly with the level (Fig 6c)") {
    val sizes = rows.map(_.headerBytes)
    assert(sizes == sizes.sorted, "header size not monotone in level")
    assert(sizes.last > sizes.head * 20, s"size growth too flat: ${sizes.head} -> ${sizes.last}")
  }

  test("shape: cell counts grow with the level") {
    val cells = rows.map(_.numCells)
    assert(cells == cells.sorted)
  }
}

object Table1BuildTimesBench {

  final case class Row(level: Int, sortMs: Double, buildMs: Double,
                       headerBytes: Long, numCells: Int, overheadPct: Double,
                       cellDiagMeters: Double)

  val Levels: Seq[Int] = 13 to 21

  def measure(fx: Fixture): Seq[Row] =
    Levels.map { level =>
      val (block: GeoBlock, buildMs) = timeMs(fx.blockAt(level))
      val diag = CellId.fromPoint(-73.97, 40.75, level).diagonalMeters
      Row(level, fx.sortMs, buildMs, block.headerSizeBytes, block.numCells,
          100.0 * block.headerSizeBytes / fx.raw.sizeBytes, diag)
    }

  def table(rows: Seq[Row]): String =
    formatTable(
      "Table 1 / Fig 6c — GeoBlock build time and size by level",
      Seq("level", "cellDiag(m)", "sorting(ms)", "building(ms)", "cells", "header(KiB)", "overhead(%)"),
      rows.map(r => Seq(
        r.level.toString,
        f"${r.cellDiagMeters}%.1f",
        f"${r.sortMs}%.0f",
        f"${r.buildMs}%.1f",
        r.numCells.toString,
        f"${r.headerBytes / 1024.0}%.1f",
        f"${r.overheadPct}%.3f")))
}
