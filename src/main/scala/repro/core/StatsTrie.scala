package repro.core

import repro.s2.CellId
import scala.collection.mutable.ArrayBuffer

/** Workload-statistics trie (Section 3.4, "Collecting Statistics").
  *
  * One hit counter per node — how often the node's cell was queried — in
  * the [[CellTrie]] encoding, so the counters of four sibling cells sit
  * side by side. The trie is pruned to start at `rootCell`, the smallest
  * cell covering the whole GeoBlock; query cells outside it (answerable in
  * O(1) by the pre-query check anyway) are dropped, as are cells at or
  * above the root level.
  */
final class StatsTrie(root: CellId) extends CellTrie(root, 0L) {

  /** Registers one query of `cell`; returns false if the cell cannot be
    * tracked (outside the pruned root or not deeper than it).
    */
  def record(cell: CellId): Boolean = {
    if (!inRange(cell)) return false
    val node = nodeFor(cell) // may grow `value`, so index it afterwards
    value(node) += 1
    true
  }

  /** A tracked cell with its own hits and its direct parent's hits. */
  final case class Entry(cell: CellId, hits: Long, parentHits: Long) {
    /** The paper's rudimentary relevance metric. */
    def score: Long = hits + parentHits
  }

  /** All cells with at least one hit, each with its score inputs. */
  def entries: IndexedSeq[Entry] = {
    val out = ArrayBuffer.empty[Entry]
    foreachNode { (node, parent, cell) =>
      if (value(node) > 0) out += Entry(cell, value(node), value(parent))
    }
    out.toIndexedSeq
  }

  /** Candidate cells for aggregation, in the paper's order: score
    * descending, then level ascending (coarser first), then id ascending.
    */
  def candidates: IndexedSeq[Entry] =
    entries.sortBy(e => (-e.score, e.cell.level, e.cell.id))
}

object StatsTrie {
  /** Trie pruned to the smallest cell covering the block's key range. */
  def forBlock(block: GeoBlock): StatsTrie = {
    val root =
      if (block.numCells == 0) CellId.World
      else CellId.commonAncestor(CellId(block.keys(0)), CellId(block.keys(block.numCells - 1)))
    new StatsTrie(root)
  }
}
