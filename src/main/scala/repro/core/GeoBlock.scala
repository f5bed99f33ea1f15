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
  * The V1 query algorithm lives here: COUNT queries touch only the first
  * and last contained CellBlock (via offsets); SELECT queries locate the
  * first CellBlock of each covering cell by binary search and scan
  * forward, merging aggregates.
  */
final class GeoBlock(
    val blockLevel: Int,
    val columnNames: Array[String],
    val keys: Array[Long],            // block-level cell ids, ascending
    val offsets: Array[Long],         // first-tuple offset per CellBlock
    val counts: Array[Long],          // tuple count per CellBlock
    val mins: Array[Array[Double]],   // [col][cell]
    val maxs: Array[Array[Double]],
    val sums: Array[Array[Double]],
) {
  val nCols: Int    = columnNames.length
  val numCells: Int = keys.length
  require(offsets.length == numCells && counts.length == numCells)
  require(mins.length == nCols && maxs.length == nCols && sums.length == nCols)

  /** Min/max raw spatial key covered — the block-wide pre-query check. */
  val keyMin: Long = if (numCells == 0) Long.MaxValue else CellId(keys(0)).rangeMin
  val keyMax: Long = if (numCells == 0) Long.MinValue else CellId(keys(numCells - 1)).rangeMax

  /** Block-wide aggregate over all CellBlocks. */
  val blockAgg: AggState = {
    val a = new AggState(nCols)
    selectCellInto(CellId.World, AggState.allCols(nCols), a)
    a
  }

  def totalTuples: Long = blockAgg.count

  /** Bytes of the GeoBlock header (CellBlock headers + block aggregate):
    * key + offset + count + 3 doubles per column per cell.
    */
  def headerSizeBytes: Long =
    numCells.toLong * (8L + 8L + 8L + 24L * nCols) + AggState.storedBytes(nCols) + 16L

  /** First index i with keys(i) >= key (numCells if none). */
  def lowerBound(key: Long): Int = {
    var lo = 0
    var hi = numCells
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (keys(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }

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
    (lowerBound(cell.rangeMin), lowerBound(cell.rangeMax + 1))
  }

  /** COUNT fast path for one query cell: only the first and last contained
    * CellBlock headers are consulted (offset arithmetic from the paper).
    */
  def countCell(cell: CellId): Long = {
    if (!mayOverlap(cell)) return 0L
    val (from, until) = cellRange(cell)
    if (from >= until) 0L
    else offsets(until - 1) + counts(until - 1) - offsets(from)
  }

  /** SELECT path for one query cell: scan all contained CellBlocks,
    * merging their aggregates directly (allocation-free hot loop).
    */
  def selectCellInto(cell: CellId, cols: Array[Int], into: AggState): Unit = {
    if (!mayOverlap(cell)) return
    val (from, until) = cellRange(cell)
    var i = from
    while (i < until) {
      into.count += counts(i)
      var k = 0
      while (k < cols.length) {
        val c  = cols(k)
        val mn = mins(c)(i)
        val mx = maxs(c)(i)
        if (mn < into.mins(c)) into.mins(c) = mn
        if (mx > into.maxs(c)) into.maxs(c) = mx
        into.sums(c) += sums(c)(i)
        k += 1
      }
      i += 1
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

  /** V1 SELECT query: cover the polygon, combine cell aggregates, project
    * the requested aggregate list.
    */
  def select(poly: Polygon, specs: Seq[AggSpec]): Array[Double] = {
    val cells = Covering.exterior(poly, blockLevel)
    selectCells(cells, AggSpec.neededCols(specs)).extractAll(specs)
  }

  /** COUNT query over a polygon via the covering + offset fast path. */
  def count(poly: Polygon): Long = {
    val cells = Covering.exterior(poly, blockLevel)
    var total = 0L
    cells.foreach(total += countCell(_))
    total
  }
}

object GeoBlock {

  /** Block-level cell id of a raw leaf key, by bit arithmetic only. */
  def blockKeyOf(leafKey: Long, level: Int): Long = {
    val shift = 2 * (CellId.MaxLevel - level)
    val pos   = leafKey >>> (1 + shift) // leaf id = pos30 << 1 | 1
    (pos << (shift + 1)) | (1L << shift)
  }

  /** Single-pass build over sorted raw data — the paper's build phase
    * (the "Building" column of Table 1). The data must already be sorted
    * by leaf key (the "Sorting" phase, done in Spark).
    */
  def buildFromSorted(raw: RawColumns, level: Int): GeoBlock = {
    val n     = raw.size
    val nCols = raw.nCols
    val allC  = AggState.allCols(nCols)
    val keysB    = new scala.collection.mutable.ArrayBuffer[Long]
    val offsB    = new scala.collection.mutable.ArrayBuffer[Long]
    val cntB     = new scala.collection.mutable.ArrayBuffer[Long]
    val minB     = Array.fill(nCols)(new scala.collection.mutable.ArrayBuffer[Double])
    val maxB     = Array.fill(nCols)(new scala.collection.mutable.ArrayBuffer[Double])
    val sumB     = Array.fill(nCols)(new scala.collection.mutable.ArrayBuffer[Double])

    var i = 0
    while (i < n) {
      val cellKey = blockKeyOf(raw.keys(i), level)
      val start   = i
      val st      = new AggState(nCols)
      while (i < n && blockKeyOf(raw.keys(i), level) == cellKey) {
        st.addTuple(raw.values, i, allC)
        i += 1
      }
      keysB += cellKey
      offsB += start.toLong
      cntB  += st.count
      var c = 0
      while (c < nCols) {
        minB(c) += st.mins(c)
        maxB(c) += st.maxs(c)
        sumB(c) += st.sums(c)
        c += 1
      }
    }
    new GeoBlock(level, raw.columnNames,
      keysB.toArray, offsB.toArray, cntB.toArray,
      minB.map(_.toArray), maxB.map(_.toArray), sumB.map(_.toArray))
  }
}
