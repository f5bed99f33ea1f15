package repro.core

import repro.geo.Polygon
import repro.s2.{CellId, Covering}

/** The GeoBlock header: one CellBlock per non-empty grid cell at
  * `blockLevel`, sorted by cell id, each storing the spatial key, the
  * offset of its first tuple in the raw data, the tuple count, and
  * MIN/MAX/SUM for every value column — plus a block-wide aggregate and
  * the min/max spatial key for the pre-query check (Section 3.2/3.3 of
  * the paper).
  *
  * The V1 query algorithm lives here: each key range of the covering
  * finds its run of CellBlocks by binary search, takes COUNT from the
  * run's offsets and scans the run only for the requested columns.
  */
final class GeoBlock(
    val blockLevel: Int,
    val columnNames: Array[String],
    val keys: Array[Long],            // block-level cell ids, ascending
    val counts: Array[Long],          // tuple count per CellBlock
    val mins: Array[Array[Double]],   // [col][cell]
    val maxs: Array[Array[Double]],
    val sums: Array[Array[Double]],
) {
  val nCols: Int    = columnNames.length
  val numCells: Int = keys.length
  require(counts.length == numCells)
  require(mins.length == nCols && maxs.length == nCols && sums.length == nCols)

  /** First-tuple offset per CellBlock: the exclusive running sum of the counts. */
  val offsets: Array[Long] = {
    val o = new Array[Long](numCells)
    var i = 1
    while (i < numCells) { o(i) = o(i - 1) + counts(i - 1); i += 1 }
    o
  }

  /** Min/max raw spatial key covered — the block-wide pre-query check. */
  val keyMin: Long = if (numCells == 0) Long.MaxValue else CellId(keys(0)).rangeMin
  val keyMax: Long = if (numCells == 0) Long.MinValue else CellId(keys(numCells - 1)).rangeMax

  /** Block-wide aggregate over all CellBlocks. */
  val blockAgg: AggState = aggregateOf(CellId.World)

  def totalTuples: Long = blockAgg.count

  /** Bytes of the GeoBlock header (CellBlock headers + block aggregate):
    * key + offset + count + 3 doubles per column per cell.
    */
  def headerSizeBytes: Long =
    numCells.toLong * (8L + 8L + 8L + 24L * nCols) + AggState.storedBytes(nCols) + 16L

  /** Pre-query check: can the cell overlap any stored CellBlock? */
  def mayOverlap(cell: CellId): Boolean =
    cell.rangeMax >= keyMin && cell.rangeMin <= keyMax

  /** CellBlock index range [from, until) covered by a query cell. The
    * query cell must be at most `blockLevel` deep — coarser cells contain
    * whole runs of block cells, deeper cells would fall between header
    * keys and silently return nothing.
    */
  def cellRange(cell: CellId): (Int, Int) = {
    require(cell.level <= blockLevel,
      s"query cell level ${cell.level} exceeds block level $blockLevel")
    GeoBlock.keyRange(keys, cell)
  }

  /** The per-cell read of V2's fallback and of [[selectCells]]. */
  def selectCellInto(cell: CellId, cols: Array[Int], into: AggState): Unit = {
    if (!mayOverlap(cell)) return
    val (from, until) = cellRange(cell)
    scanInto(from, until, cols, into)
  }

  /** The one CellBlock read: COUNT of CellBlocks [from, until) from the
    * first and last one's offsets (the paper's COUNT rule), then
    * MIN/MAX/SUM of the requested columns, one column at a time, in
    * ascending CellBlock order.
    */
  private def scanInto(from: Int, until: Int, cols: Array[Int], into: AggState): Unit = {
    if (from >= until) return
    into.count += offsets(until - 1) + counts(until - 1) - offsets(from)
    var k = 0
    while (k < cols.length) {
      val c  = cols(k)
      val mn = mins(c)
      val mx = maxs(c)
      val sm = sums(c)
      var lo = into.mins(c)
      var hi = into.maxs(c)
      var s  = into.sums(c)
      var i  = from
      while (i < until) {
        if (mn(i) < lo) lo = mn(i)
        if (mx(i) > hi) hi = mx(i)
        s += sm(i)
        i += 1
      }
      into.mins(c) = lo
      into.maxs(c) = hi
      into.sums(c) = s
      k += 1
    }
  }

  /** Combines the aggregates of a set of query cells (shared by V1 & V2). */
  def selectCells(cells: Seq[CellId], cols: Array[Int]): AggState = {
    val st = new AggState(nCols)
    cells.foreach(selectCellInto(_, cols, st))
    st
  }

  /** Full aggregate (all columns) of one query cell — used to materialize
    * AggregateTrie entries.
    */
  def aggregateOf(cell: CellId): AggState =
    selectCells(Seq(cell), AggState.allCols(nCols))

  /** V1 SELECT query: cover the polygon, merge adjacent covering cells
    * into key ranges as they come (the next cell's `rangeMin` is the last
    * one's `rangeMax + 2`), and read each range's CellBlocks with two
    * binary searches, the first starting where the previous range ended.
    * The CellBlocks are read in the same ascending order as
    * `selectCells(Covering.exterior(poly, blockLevel), cols)`, so the
    * answers are bit-identical to it.
    */
  def select(poly: Polygon, specs: Seq[AggSpec]): Array[Double] = {
    val ids  = Covering.exteriorIds(poly, blockLevel)
    val cols = AggSpec.neededCols(specs)
    val st   = new AggState(nCols)
    var from = 0
    var i    = 0
    while (i < ids.length) {
      val lo = CellId(ids(i)).rangeMin
      var hi = CellId(ids(i)).rangeMax
      i += 1
      while (i < ids.length && CellId(ids(i)).rangeMin == hi + 2) {
        hi = CellId(ids(i)).rangeMax
        i += 1
      }
      from = GeoBlock.lowerBound(keys, from, lo)
      val until = GeoBlock.lowerBound(keys, from, hi + 1)
      scanInto(from, until, cols, st)
      from = until
    }
    st.extractAll(specs)
  }
}

object GeoBlock {

  /** Block-level cell id of a raw leaf key, by bit arithmetic only. */
  def blockKeyOf(leafKey: Long, level: Int): Long = {
    val shift = 2 * (CellId.MaxLevel - level)
    val pos   = leafKey >>> (1 + shift) // leaf id = pos30 << 1 | 1
    (pos << (shift + 1)) | (1L << shift)
  }

  /** Index range [from, until) of the ascending `sorted` keys that lie in
    * the cell's descendant range.
    */
  private[core] def keyRange(sorted: Array[Long], cell: CellId): (Int, Int) =
    (lowerBound(sorted, 0, cell.rangeMin), lowerBound(sorted, 0, cell.rangeMax + 1))

  /** First index i >= `from` with sorted(i) >= key (sorted.length if
    * none).
    */
  private def lowerBound(sorted: Array[Long], from: Int, key: Long): Int = {
    var lo = from
    var hi = sorted.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sorted(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Single-pass build over sorted raw data — the paper's build phase
    * (the "Building" column of Table 1). The data must already be sorted
    * by leaf key (the "Sorting" phase, done in Spark); a key below its
    * predecessor fails with an `IllegalArgumentException` naming the row.
    * Each cell's values are summed in row order.
    */
  def buildFromSorted(raw: RawColumns, level: Int): GeoBlock = {
    val n = raw.size
    // One pass over the keys finds the cell runs: cell j holds rows
    // [start(j), start(j + 1)). Sized for one cell per row.
    val cellKeys = new Array[Long](n)
    val start    = new Array[Int](n + 1)
    var m = 0
    var i = 0
    while (i < n) {
      if (i > 0 && raw.keys(i) < raw.keys(i - 1))
        throw new IllegalArgumentException(
          s"raw keys not ascending at row $i: ${raw.keys(i - 1)} then ${raw.keys(i)}")
      val k = blockKeyOf(raw.keys(i), level)
      if (m == 0 || k != cellKeys(m - 1)) { cellKeys(m) = k; start(m) = i; m += 1 }
      i += 1
    }
    start(m) = n
    val counts = new Array[Long](m)
    for (j <- 0 until m) counts(j) = start(j + 1) - start(j)
    val mins = Array.ofDim[Double](raw.nCols, m)
    val maxs = Array.ofDim[Double](raw.nCols, m)
    val sums = Array.ofDim[Double](raw.nCols, m)
    for (c <- 0 until raw.nCols; j <- 0 until m) {
      val v  = raw.values(c)
      var lo = Double.PositiveInfinity
      var hi = Double.NegativeInfinity
      var s  = 0.0
      var r  = start(j)
      while (r < start(j + 1)) {
        if (v(r) < lo) lo = v(r)
        if (v(r) > hi) hi = v(r)
        s += v(r)
        r += 1
      }
      mins(c)(j) = lo
      maxs(c)(j) = hi
      sums(c)(j) = s
    }
    new GeoBlock(level, raw.columnNames, java.util.Arrays.copyOf(cellKeys, m), counts,
      mins, maxs, sums)
  }
}
