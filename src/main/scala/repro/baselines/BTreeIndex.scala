package repro.baselines

import repro.core.{AggState, RawColumns}
import repro.s2.CellId

/** The BTree baseline: a B+-tree as secondary index over the sorted
  * spatial keys. Each covering cell is answered by probing the tree for
  * the cell's first contained key, then scanning the sorted raw data
  * forward until no further tuple qualifies (the paper's description).
  */
final class BTreeIndex(val raw: RawColumns) {

  val tree = new BPlusTree(raw.keys)

  def sizeBytes: Long = tree.sizeBytes

  def aggregateCells(cells: Seq[CellId], cols: Array[Int]): AggState = {
    val st = new AggState(raw.nCols)
    cells.foreach { cell =>
      var i  = tree.lowerBound(cell.rangeMin)
      val hi = cell.rangeMax
      while (i < raw.size && raw.keys(i) <= hi) {
        st.addTuple(raw.values, i, cols)
        i += 1
      }
    }
    st
  }
}
