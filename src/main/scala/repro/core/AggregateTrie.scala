package repro.core

import repro.s2.CellId
import scala.collection.mutable.ArrayBuffer

/** In-place aggregate cache (Section 3.4, "Aggregate Storage").
  *
  * The trie uses the paper's compact [[CellTrie]] encoding; a node's value
  * is the offset of its cell's aggregate in the aggregate store (-1 if the
  * cell is not aggregated). Sizes are accounted as the paper's two 32-bit
  * integers per node plus the stored aggregates.
  */
final class AggregateTrie(root: CellId, val nCols: Int) extends CellTrie(root, -1L) {

  private val aggStore = ArrayBuffer.empty[AggState]

  def numAggregates: Int = aggStore.length

  /** Bytes occupied: 8 bytes per node + one stored aggregate each. */
  def sizeBytes: Long =
    8L * numNodes + AggState.storedBytes(nCols) * numAggregates

  /** Bytes that inserting `cell` would add (new 4-node groups + the
    * aggregate), given the currently existing nodes.
    */
  def insertCostBytes(cell: CellId): Long =
    if (!inRange(cell)) Long.MaxValue
    else 32L * missingGroups(cell) + AggState.storedBytes(nCols)

  /** Materializes the aggregate for `cell`, creating trie nodes along the
    * path (four siblings at a time). Returns false if the cell is outside
    * the pruned root.
    */
  def insert(cell: CellId, agg: AggState): Boolean = {
    if (!inRange(cell)) return false
    val node = nodeFor(cell)
    if (value(node) == -1L) {
      value(node) = aggStore.length
      aggStore += agg
    } else {
      aggStore(value(node).toInt) = agg
    }
    true
  }

  /** Cached aggregate at the node, or null (hot path companion of
    * [[nodeOf]]).
    */
  def aggOrNull(node: Int): AggState = {
    val off = value(node)
    if (off >= 0) aggStore(off.toInt) else null
  }

  /** Cached aggregate of child i of the node, or null. */
  def childAggOrNull(node: Int, i: Int): AggState = {
    val child = childOf(node, i)
    if (child == -1) null else aggOrNull(child)
  }
}
