package repro.baselines

import scala.collection.mutable.ArrayBuffer

/** A bulk-loaded B+-tree over a sorted key array, used as a secondary
  * index key -> row position (the analog of the paper's Google cpp-btree
  * baseline). Fixed fanout, contiguous per-level arrays.
  *
  * The leaf level is the input key array itself; `lowerBound` descends
  * from the root and returns the position of the first key >= the probe.
  */
final class BPlusTree(keys: Array[Long]) {
  import BPlusTree.Fanout

  // levels(0) = separators over the leaves, levels(i+1) over levels(i).
  // Each internal level stores the first key of every child group.
  private val levels: Array[Array[Long]] = {
    val out  = ArrayBuffer.empty[Array[Long]]
    var cur  = keys
    while (cur.length > Fanout) {
      val n    = (cur.length + Fanout - 1) / Fanout
      val next = new Array[Long](n)
      var i = 0
      while (i < n) { next(i) = cur(i * Fanout); i += 1 }
      out += next
      cur = next
    }
    out.toArray
  }

  def height: Int = levels.length + 1

  /** Index bytes: 8 per separator key (child pointers are implicit in the
    * contiguous layout, matching how we count the GeoBlock header too).
    */
  def sizeBytes: Long = levels.map(_.length.toLong * 8L).sum + 8L * keys.length

  /** Position of the first key >= probe in the underlying array
    * (keys.length if none) — found by root-to-leaf descent.
    */
  def lowerBound(probe: Long): Int = {
    // Start at the top level: scan within the root node.
    var lvl   = levels.length - 1
    var child = 0 // index into current level's array
    while (lvl >= 0) {
      val arr = levels(lvl)
      val end = math.min(child + Fanout, arr.length)
      // The last child whose first key is < probe holds the last key
      // < probe, so the first key >= probe is in it or starts the next
      // child. If there is none (only at the root), descend leftmost.
      var i = child
      var sel = child
      while (i < end && arr(i) < probe) { sel = i; i += 1 }
      child = sel * Fanout
      lvl -= 1
    }
    // child is now a position in the leaf (key) array: scan its node. If
    // every key there is < probe, the next node's first key is >= probe.
    var pos = child
    val end = math.min(pos + Fanout, keys.length)
    while (pos < end && keys(pos) < probe) pos += 1
    pos
  }
}

object BPlusTree {
  /** Children per inner node and keys per leaf node. */
  val Fanout = 16
}
