package repro.core

import repro.s2.CellId

/** The output of the extract-and-reorganize phase: columnar raw data
  * sorted by the level-30 spatial key. Shared by the GeoBlock build and by
  * every on-the-fly baseline (BinarySearch/BTree scan it; PHTree/RTree
  * re-index lon/lat from it), exactly as in the paper's setup.
  */
final class RawColumns(
    val keys: Array[Long],            // leaf cell ids, ascending
    val lons: Array[Double],
    val lats: Array[Double],
    val columnNames: Array[String],
    val values: Array[Array[Double]], // [col][row], same order as keys
) {
  require(values.forall(_.length == keys.length))
  require(lons.length == keys.length && lats.length == keys.length)

  def size: Int  = keys.length
  def nCols: Int = values.length

  /** Bytes of the aggregatable payload (key + value columns) — the base
    * the paper's relative size overheads are reported against.
    */
  def sizeBytes: Long = 8L * size + 8L * size * nCols

  /** Row range [from, until) of tuples inside the cell's descendant range. */
  def rangeOf(cell: CellId): (Int, Int) = GeoBlock.keyRange(keys, cell)
}
