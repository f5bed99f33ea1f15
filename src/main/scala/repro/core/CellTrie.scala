package repro.core

import repro.s2.CellId

/** The compact trie encoding of Section 3.4, shared by [[StatsTrie]] and
  * [[AggregateTrie]].
  *
  * Nodes are stored contiguously in primitive arrays; node `n` holds one
  * 64-bit value (`value(n)`, `empty` when unset) and the index of its
  * *first* child (`firstChild(n)`, -1 if it has no children). Children are
  * always allocated four at a time, so `firstChild(n) + i` addresses child
  * i directly and the values of four siblings are contiguous. A cell's
  * path is read off its Hilbert position two bits per level.
  *
  * Node 0 is the root and corresponds to `rootCell` (for a GeoBlock, the
  * smallest cell covering it); only cells strictly below it have nodes.
  */
abstract class CellTrie(val rootCell: CellId, empty: Long) {

  private var firstChild: Array[Int] = Array.fill(64)(-1)
  protected var value: Array[Long]   = Array.fill(64)(empty)
  private var nNodes = 1

  private val rootLevel = rootCell.level

  def numNodes: Int = nNodes

  /** True if the cell lies strictly below the root, i.e. can have a node. */
  protected final def inRange(cell: CellId): Boolean =
    cell.level > rootLevel && rootCell.contains(cell)

  private def growTo(cap: Int): Unit =
    if (cap > firstChild.length) {
      val newCap = CellTrie.grownCapacity(firstChild.length, cap)
      val fc = Array.fill(newCap)(-1)
      val v  = Array.fill(newCap)(empty)
      Array.copy(firstChild, 0, fc, 0, nNodes)
      Array.copy(value, 0, v, 0, nNodes)
      firstChild = fc
      value = v
    }

  /** Allocation-free lookup for the query hot path: the node index for
    * the cell, or -1 if the cell is out of range or its path is missing.
    */
  final def nodeOf(cell: CellId): Int = {
    if (!inRange(cell)) return -1
    val pos  = cell.pos
    var node = 0
    var s    = 2 * (cell.level - rootLevel - 1)
    while (s >= 0) {
      val fc = firstChild(node)
      if (fc == -1) return -1
      node = fc + ((pos >>> s) & 3L).toInt
      s -= 2
    }
    node
  }

  /** Node index of child i of the node, or -1 if it has no children. */
  protected final def childOf(node: Int, i: Int): Int = {
    val fc = firstChild(node)
    if (fc == -1) -1 else fc + i
  }

  /** The node index for an in-range cell, allocating the missing groups of
    * four along its path.
    */
  protected final def nodeFor(cell: CellId): Int = {
    val pos  = cell.pos
    var node = 0
    var s    = 2 * (cell.level - rootLevel - 1)
    while (s >= 0) {
      if (firstChild(node) == -1) {
        val grown = CellTrie.grownCount(nNodes)
        growTo(grown)
        firstChild(node) = nNodes
        nNodes = grown
      }
      node = firstChild(node) + ((pos >>> s) & 3L).toInt
      s -= 2
    }
    node
  }

  /** Number of four-node groups [[nodeFor]] would allocate for an
    * in-range cell.
    */
  protected final def missingGroups(cell: CellId): Int = {
    val pos  = cell.pos
    var node = 0
    var s    = 2 * (cell.level - rootLevel - 1)
    while (s >= 0) {
      val fc = firstChild(node)
      if (fc == -1) return s / 2 + 1
      node = fc + ((pos >>> s) & 3L).toInt
      s -= 2
    }
    0
  }

  /** Pre-order walk over every node below the root, handing `f` the node,
    * its parent node and its cell; siblings are visited in child order.
    */
  protected final def foreachNode(f: (Int, Int, CellId) => Unit): Unit = {
    def walk(parent: Int, cell: CellId): Unit = {
      val fc = firstChild(parent)
      if (fc != -1) {
        var i = 0
        while (i < 4) {
          val childCell = cell.child(i)
          f(fc + i, parent, childCell)
          walk(fc + i, childCell)
          i += 1
        }
      }
    }
    walk(0, rootCell)
  }
}

object CellTrie {

  /** Most nodes a trie holds: node indices are `Int`s, and the JVM
    * allocates arrays of at most about `Int.MaxValue - 8` elements.
    */
  val MaxNodes: Int = Int.MaxValue - 8

  /** The node count after allocating one more group of four; fails with
    * an `IllegalStateException` naming the count rather than let the
    * 32-bit count wrap or outgrow an array.
    */
  private[core] def grownCount(nNodes: Int): Int = {
    if (nNodes > MaxNodes - 4)
      throw new IllegalStateException(
        s"trie of $nNodes nodes cannot grow by 4: at most $MaxNodes nodes fit 32-bit indices")
    nNodes + 4
  }

  /** Array length for holding `cap` nodes when the arrays hold `length`:
    * doubled, but at least `cap` and at most [[MaxNodes]].
    */
  private[core] def grownCapacity(length: Int, cap: Int): Int =
    math.min(MaxNodes.toLong, math.max(cap.toLong, 2L * length)).toInt
}
