package repro.perfbench

import repro.core.{AggSpec, AggState, AggregateTrie, GeoBlock, RawColumns}
import repro.geo.Polygon
import repro.s2.CellId

/** Untimed correctness checks and exact work counts, computed from
  * outside the program through its public API.
  */
object Check {

  /** Relative tolerance for comparing aggregates summed in different
    * orders; COUNT, MIN and MAX agree exactly in practice.
    */
  val RelTol = 1e-9

  def close(a: Double, b: Double): Boolean =
    a == b || (a.isNaN && b.isNaN) ||
      math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b))

  def sameAnswer(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i => close(a(i), b(i)))

  /** The aggregates over the raw points inside the cells' key ranges. */
  def bruteForce(raw: RawColumns, cells: Seq[CellId], specs: Seq[AggSpec]): Array[Double] = {
    val st   = new AggState(raw.nCols)
    val cols = AggState.allCols(raw.nCols)
    cells.foreach { c =>
      val (from, until) = raw.rangeOf(c)
      var i = from
      while (i < until) { st.addTuple(raw.values, i, cols); i += 1 }
    }
    st.extractAll(specs)
  }

  /** Points inside the polygon; the exterior covering holds them all. */
  def exactCount(raw: RawColumns, cells: Seq[CellId], poly: Polygon): Long = {
    var n = 0L
    cells.foreach { c =>
      val (from, until) = raw.rangeOf(c)
      var i = from
      while (i < until) {
        if (poly.containsXY(raw.lons(i), raw.lats(i))) n += 1
        i += 1
      }
    }
    n
  }

  def relError(approx: Double, exact: Long): Double = math.abs(approx - exact) / exact

  /** Contiguous leaf-key runs in a sorted covering (adjacent leaf ids
    * differ by 2).
    */
  def keyRanges(cells: IndexedSeq[CellId]): Int = {
    var runs = 0
    var i = 0
    while (i < cells.length) {
      if (i == 0 || cells(i).rangeMin != cells(i - 1).rangeMax + 2) runs += 1
      i += 1
    }
    runs
  }
}

/** Exact work counts of a set of queries. */
final class Work {
  var queries            = 0L
  var cells              = 0L
  var keyRanges          = 0L
  var v1CellBlocks       = 0L // CellBlocks the V1 algorithm scans for these cells
  var binarySearches     = 0L // binary searches the engine actually ran
  var fallbackCellBlocks = 0L // CellBlocks V2 scanned through its V1 fallback
  var hits               = 0L
  var partialHits        = 0L
  var misses             = 0L

  def probes: Long = hits + partialHits + misses

  def fields: Seq[(String, Long)] = Seq(
    "queries" -> queries, "cells" -> cells, "key_ranges" -> keyRanges,
    "v1_cellblocks" -> v1CellBlocks, "binary_searches" -> binarySearches,
    "fallback_cellblocks" -> fallbackCellBlocks, "hits" -> hits,
    "partial_hits" -> partialHits, "misses" -> misses)

  private def blocksOf(block: GeoBlock, cell: CellId): Long =
    if (!block.mayOverlap(cell)) 0L
    else { val (from, until) = block.cellRange(cell); (until - from).toLong }

  /** Counts one query cell set answered by V1. */
  def addV1(block: GeoBlock, cells: IndexedSeq[CellId]): Unit = {
    addCells(block, cells)
    cells.foreach(c => if (block.mayOverlap(c)) binarySearches += 2)
  }

  private def addCells(block: GeoBlock, cells: IndexedSeq[CellId]): Unit = {
    queries += 1
    this.cells += cells.length
    keyRanges += Check.keyRanges(cells)
    cells.foreach(c => v1CellBlocks += blocksOf(block, c))
  }

  /** Replays V2's adapted SELECT for one query through the public API of
    * the GeoBlock and the AggregateTrie, counting probes and fallback
    * scans. Returns the answer the replay computes, which must equal V2's
    * own answer bit for bit if V2 took the replayed path.
    */
  def replayV2(block: GeoBlock, trie: AggregateTrie, cells: IndexedSeq[CellId],
               specs: Seq[AggSpec]): Array[Double] = {
    addCells(block, cells)
    val cols = AggSpec.neededCols(specs)
    val st   = new AggState(block.nCols)
    def fallback(c: CellId): Unit = {
      if (block.mayOverlap(c)) {
        binarySearches += 2
        fallbackCellBlocks += blocksOf(block, c)
      }
      block.selectCellInto(c, cols, st)
    }
    cells.foreach { cell =>
      if (block.mayOverlap(cell)) {
        val node = trie.nodeOf(cell)
        if (node < 0) { misses += 1; fallback(cell) }
        else {
          val agg = trie.aggOrNull(node)
          if (agg != null) { hits += 1; st.mergeFrom(agg, cols) }
          else {
            partialHits += 1
            if (cell.level < block.blockLevel) {
              var i = 0
              while (i < 4) {
                val ca = trie.childAggOrNull(node, i)
                if (ca != null) st.mergeFrom(ca, cols) else fallback(cell.child(i))
                i += 1
              }
            } else fallback(cell)
          }
        }
      }
    }
    st.extractAll(specs)
  }
}
