package repro.core

import repro.geo.Polygon
import repro.s2.{CellId, Covering}

/** The V2 GeoBlock: the basic block plus the query-driven StatsTrie and
  * AggregateTrie, with the adapted SELECT algorithm of Section 3.4.
  *
  * Usage mirrors the paper's evaluation protocol: run a workload (each
  * query records its covering cells in the StatsTrie), call
  * [[buildAggregateTrie]] with a threshold, then keep querying — cached
  * cells are now answered from the AggregateTrie.
  */
final class AdaptiveGeoBlock(val block: GeoBlock) {

  val stats: StatsTrie = StatsTrie.forBlock(block)
  // Empty until buildAggregateTrie replaces it: every probe misses.
  private var trie = new AggregateTrie(stats.rootCell, block.nCols)

  /** Builds the AggregateTrie from the statistics collected so far. The
    * threshold is the allowed size as a fraction of the GeoBlock header
    * size (the paper's "aggregate threshold"). Candidates are inserted in
    * score order until one no longer fits.
    */
  def buildAggregateTrie(threshold: Double): AggregateTrie = {
    val budget = (block.headerSizeBytes * threshold).toLong
    val t      = new AggregateTrie(stats.rootCell, block.nCols)
    val cands  = stats.candidates
    var i      = 0
    var stop   = false
    while (i < cands.length && !stop) {
      val cell = cands(i).cell
      if (cell.level <= block.blockLevel) {
        val cost = t.insertCostBytes(cell)
        if (t.sizeBytes + cost <= budget) t.insert(cell, block.aggregateOf(cell))
        else stop = true
      }
      i += 1
    }
    trie = t
    t
  }

  /** Adapted per-cell SELECT: probe the AggregateTrie first; on a hit use
    * the cached aggregate, on a node without aggregate combine cached
    * direct children with the basic algorithm for the remaining ones, and
    * on a miss fall back to the basic algorithm entirely.
    */
  private def selectCellAdapted(cell: CellId, cols: Array[Int], into: AggState): Unit = {
    if (!block.mayOverlap(cell)) return
    val node = trie.nodeOf(cell)
    val agg  = if (node < 0) null else trie.aggOrNull(node)
    if (agg != null) into.mergeFrom(agg, cols)
    else if (node >= 0 && cell.level < block.blockLevel) {
      var i = 0
      while (i < 4) {
        val ca = trie.childAggOrNull(node, i)
        if (ca != null) into.mergeFrom(ca, cols)
        else block.selectCellInto(cell.child(i), cols, into)
        i += 1
      }
    } else block.selectCellInto(cell, cols, into)
  }

  /** V2 SELECT over an already-computed covering: records every query
    * cell in the StatsTrie, then answers each cell through the adapted
    * algorithm.
    */
  def selectCells(cells: Seq[CellId], specs: Seq[AggSpec]): Array[Double] = {
    val cols = AggSpec.neededCols(specs)
    val st   = new AggState(block.nCols)
    cells.foreach { c =>
      stats.record(c)
      selectCellAdapted(c, cols, st)
    }
    st.extractAll(specs)
  }

  /** V2 SELECT query over a polygon (covering + [[selectCells]]). */
  def select(poly: Polygon, specs: Seq[AggSpec]): Array[Double] =
    selectCells(Covering.exterior(poly, block.blockLevel), specs)
}
