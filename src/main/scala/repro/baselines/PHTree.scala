package repro.baselines

import repro.core.{AggState, RawColumns}
import repro.geo.BBox
import repro.s2.CellId

/** Simplified PH-tree baseline: a prefix-subdividing quadtree over the
  * 30-bit integer grid coordinates of the points, with bucket leaves.
  * Like the paper's PH-tree it is a multidimensional point index probed
  * with a rectangular range query (the polygon's *interior* rectangle),
  * and like all on-the-fly baselines it aggregates raw tuples at query
  * time. Points are permuted so every subtree owns a contiguous range.
  */
final class PHTree(val raw: RawColumns) {

  private val n  = raw.size
  private val xs = new Array[Long](n)
  private val ys = new Array[Long](n)
  locally {
    var i = 0
    while (i < n) {
      xs(i) = CellId.xCoord(raw.lons(i))
      ys(i) = CellId.yCoord(raw.lats(i))
      i += 1
    }
  }

  /** Row indices permuted so each node owns perm[from, until). */
  private val perm = Array.range(0, n)

  sealed trait Node { def from: Int; def until: Int }
  final case class Leaf(from: Int, until: Int) extends Node
  final case class Inner(from: Int, until: Int, children: Array[Node]) extends Node

  private var nodeCount = 0

  val root: Node = {
    // The root covers the smallest power-of-two square containing the data.
    build(0, n, 0L, 0L, 1L << CellId.MaxLevel)
  }

  private def build(from: Int, until: Int, x0: Long, y0: Long, size: Long): Node = {
    nodeCount += 1
    if (until - from <= PHTree.BucketCap || size <= 1) return Leaf(from, until)
    val half = size / 2
    val mx   = x0 + half
    val my   = y0 + half
    // Stable 4-way partition of perm[from, until) by quadrant.
    val groups = Array.fill(4)(new scala.collection.mutable.ArrayBuffer[Int])
    var i = from
    while (i < until) {
      val p = perm(i)
      val q = (if (xs(p) >= mx) 1 else 0) + (if (ys(p) >= my) 2 else 0)
      groups(q) += p
      i += 1
    }
    var pos = from
    val children = new Array[Node](4)
    var q = 0
    while (q < 4) {
      val g     = groups(q)
      val start = pos
      var j = 0
      while (j < g.length) { perm(pos) = g(j); pos += 1; j += 1 }
      val cx = x0 + (if ((q & 1) == 1) half else 0L)
      val cy = y0 + (if ((q & 2) == 2) half else 0L)
      children(q) =
        if (g.isEmpty) Leaf(start, start)
        else build(start, pos, cx, cy, half)
      q += 1
    }
    Inner(from, until, children)
  }

  /** Index bytes: node overhead + the permutation array. */
  def sizeBytes: Long = nodeCount.toLong * 32L + 4L * n

  /** Aggregates all points with lon/lat inside the (closed) box. */
  def aggregateRect(b: BBox, cols: Array[Int]): AggState = {
    val st = new AggState(raw.nCols)
    val qx0 = CellId.xCoord(b.minX); val qx1 = CellId.xCoord(b.maxX)
    val qy0 = CellId.yCoord(b.minY); val qy1 = CellId.yCoord(b.maxY)

    def scanAll(from: Int, until: Int): Unit = {
      var i = from
      while (i < until) { st.addTuple(raw.values, perm(i), cols); i += 1 }
    }
    def scanFiltered(from: Int, until: Int): Unit = {
      var i = from
      while (i < until) {
        val p = perm(i)
        if (xs(p) >= qx0 && xs(p) <= qx1 && ys(p) >= qy0 && ys(p) <= qy1)
          st.addTuple(raw.values, p, cols)
        i += 1
      }
    }
    def visit(node: Node, x0: Long, y0: Long, size: Long): Unit = {
      if (node.from == node.until) return
      val x1 = x0 + size - 1
      val y1 = y0 + size - 1
      if (x1 < qx0 || x0 > qx1 || y1 < qy0 || y0 > qy1) return   // disjoint
      if (x0 >= qx0 && x1 <= qx1 && y0 >= qy0 && y1 <= qy1) {    // contained
        scanAll(node.from, node.until)
        return
      }
      node match {
        case Leaf(f, u) => scanFiltered(f, u)
        case Inner(_, _, ch) =>
          val half = size / 2
          var q = 0
          while (q < 4) {
            val cx = x0 + (if ((q & 1) == 1) half else 0L)
            val cy = y0 + (if ((q & 2) == 2) half else 0L)
            visit(ch(q), cx, cy, half)
            q += 1
          }
      }
    }
    visit(root, 0L, 0L, 1L << CellId.MaxLevel)
    st
  }
}

object PHTree {
  /** Points per leaf bucket. */
  val BucketCap = 64
}
