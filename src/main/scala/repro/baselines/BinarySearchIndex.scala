package repro.baselines

import repro.core.{AggState, RawColumns}
import repro.s2.CellId

/** The paper's simplest baseline: no index at all — locate the first and
  * last qualifying tuple of each covering cell by binary search on the
  * sorted spatial key, then loop over the tuples and aggregate on the
  * fly.
  */
final class BinarySearchIndex(val raw: RawColumns) {

  /** Extra storage beyond the sorted raw data: none. */
  def sizeBytes: Long = 0L

  def aggregateCells(cells: Seq[CellId], cols: Array[Int]): AggState = {
    val st = new AggState(raw.nCols)
    cells.foreach { cell =>
      val (from, until) = raw.rangeOf(cell)
      var i = from
      while (i < until) {
        st.addTuple(raw.values, i, cols)
        i += 1
      }
    }
    st
  }
}
