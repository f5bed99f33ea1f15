package repro.bench

import repro.bench.BenchSpec.formatTable

/** Figures 6a/6b: per-engine build time (split into the shared sorting
  * phase and the engine-specific build) and relative size overhead
  * against the raw columnar data, at block level 17 as in the paper.
  * Paper shape: sorting dominates the Block build; the Block is built
  * faster than BTree and PHTree (only BinarySearch is quicker, it just
  * sorts); the Block header overhead is comparable to — often lower
  * than — the point indexes.
  */
class Fig6OverheadBench extends BenchSpec {
  import Fig6OverheadBench._

  private lazy val rows = measure(fx)

  private def row(name: String) = rows.find(_.engine == name).get

  test("Fig 6a/6b — engine build time and size overhead") {
    report(table(rows))
    assert(rows.length == 5)
  }

  test("shape: block building is cheap next to the shared sorting phase") {
    val b = row("Block(17)")
    assert(b.buildMs < b.sortMs,
      s"block building ${b.buildMs} not below sorting ${b.sortMs}")
  }

  test("shape: binary search needs no storage; block header is small") {
    assert(row("BinarySearch").sizeBytes == 0)
    val blockPct = row("Block(17)").overheadPct
    assert(blockPct < 50.0, s"block overhead $blockPct% too large")
  }

  test("shape: block header overhead is below the point-index overheads") {
    val blockPct = row("Block(17)").overheadPct
    assert(blockPct < row("BTree").overheadPct)
    assert(blockPct < row("PHTree").overheadPct)
    assert(blockPct < row("RTree").overheadPct)
  }

  test("shape: block build time is competitive with the index builds") {
    val b = row("Block(17)")
    // paper: Block built faster than BTree and PHTree
    assert(b.buildMs < row("PHTree").buildMs * 2,
      s"block ${b.buildMs} vs PHTree ${row("PHTree").buildMs}")
  }
}

object Fig6OverheadBench {

  final case class Row(engine: String, sortMs: Double, buildMs: Double,
                       sizeBytes: Long, overheadPct: Double)

  def measure(fx: Fixture): Seq[Row] = {
    val rawBytes = fx.raw.sizeBytes.toDouble
    def pct(b: Long) = 100.0 * b / rawBytes
    Seq(
      Row("Block(17)", fx.sortMs, fx.blockBuildMs,
          fx.block.headerSizeBytes, pct(fx.block.headerSizeBytes)),
      Row("BinarySearch", fx.sortMs, fx.binarySearchBuildMs,
          fx.binarySearch.sizeBytes, pct(fx.binarySearch.sizeBytes)),
      Row("BTree", fx.sortMs, fx.btreeBuildMs,
          fx.btree.sizeBytes, pct(fx.btree.sizeBytes)),
      Row("PHTree", 0.0, fx.phtreeBuildMs,
          fx.phtree.sizeBytes, pct(fx.phtree.sizeBytes)),
      Row("RTree", 0.0, fx.rtreeBuildMs,
          fx.rtree.sizeBytes, pct(fx.rtree.sizeBytes)),
    )
  }

  def table(rows: Seq[Row]): String =
    formatTable(
      "Fig 6a/6b — index build time and size overhead (level 17)",
      Seq("engine", "sorting(ms)", "building(ms)", "size(KiB)", "overhead(%)"),
      rows.map(r => Seq(
        r.engine,
        f"${r.sortMs}%.0f",
        f"${r.buildMs}%.1f",
        f"${r.sizeBytes / 1024.0}%.1f",
        f"${r.overheadPct}%.3f")))
}
