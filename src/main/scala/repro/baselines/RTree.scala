package repro.baselines

import repro.core.RawColumns
import repro.geo.BBox

/** aR-tree emulation (the paper's RTree baseline): an STR bulk-loaded
  * R-tree over the points with at most 16 entries per node, where every
  * inner node stores the COUNT of the points below it. Count queries over
  * a rectangle are answered from inner-node aggregates whenever a node's
  * MBR is fully enclosed — only boundary leaves touch raw points. Like
  * the paper, this baseline reports counts only.
  */
final class RTree(val raw: RawColumns) {

  sealed trait Node {
    def mbr: BBox
    def count: Long
  }
  final case class LeafNode(mbr: BBox, rows: Array[Int]) extends Node {
    def count: Long = rows.length.toLong
  }
  final case class InnerNode(mbr: BBox, count: Long, children: Array[Node]) extends Node

  private var nodeCount = 0

  private def mbrOf(rows: Array[Int]): BBox = {
    var minX = Double.PositiveInfinity; var minY = Double.PositiveInfinity
    var maxX = Double.NegativeInfinity; var maxY = Double.NegativeInfinity
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      if (raw.lons(r) < minX) minX = raw.lons(r)
      if (raw.lons(r) > maxX) maxX = raw.lons(r)
      if (raw.lats(r) < minY) minY = raw.lats(r)
      if (raw.lats(r) > maxY) maxY = raw.lats(r)
      i += 1
    }
    BBox(minX, minY, maxX, maxY)
  }

  private def union(bs: Seq[BBox]): BBox =
    BBox(bs.map(_.minX).min, bs.map(_.minY).min, bs.map(_.maxX).max, bs.map(_.maxY).max)

  val root: Node = {
    // STR: sort by x, cut into vertical slabs, sort each slab by y, chunk.
    val n      = raw.size
    val byX    = Array.range(0, n).sortBy(raw.lons(_))
    val nLeaf  = math.max(1, (n + RTree.NodeCap - 1) / RTree.NodeCap)
    val nSlabs = math.max(1, math.ceil(math.sqrt(nLeaf.toDouble)).toInt)
    val slabSz = math.max(1, (n + nSlabs - 1) / nSlabs)
    val leaves = byX.grouped(slabSz).flatMap { slab =>
      slab.sortBy(raw.lats(_)).grouped(RTree.NodeCap).map { rows =>
        nodeCount += 1
        LeafNode(mbrOf(rows), rows): Node
      }
    }.toArray
    // Pack upward until a single root remains.
    var level: Array[Node] = leaves
    while (level.length > 1) {
      level = level.grouped(RTree.NodeCap).map { ch =>
        nodeCount += 1
        InnerNode(union(ch.toSeq.map(_.mbr)), ch.map(_.count).sum, ch): Node
      }.toArray
    }
    level.headOption.getOrElse(LeafNode(BBox(0, 0, 0, 0), Array.empty))
  }

  /** Bytes: MBR (4 doubles) + count per node, plus leaf row ids. */
  def sizeBytes: Long = nodeCount.toLong * 40L + 4L * raw.size

  /** Number of points inside the (closed) rectangle, using inner-node
    * counts for fully-enclosed subtrees.
    */
  def countRect(q: BBox): Long = {
    def visit(node: Node): Long = {
      if (!q.intersects(node.mbr)) 0L
      else if (q.containsBox(node.mbr)) node.count
      else node match {
        case LeafNode(_, rows) =>
          var c = 0L
          var i = 0
          while (i < rows.length) {
            val r = rows(i)
            if (raw.lons(r) >= q.minX && raw.lons(r) <= q.maxX &&
                raw.lats(r) >= q.minY && raw.lats(r) <= q.maxY) c += 1
            i += 1
          }
          c
        case InnerNode(_, _, ch) =>
          var c = 0L
          var i = 0
          while (i < ch.length) { c += visit(ch(i)); i += 1 }
          c
      }
    }
    if (raw.size == 0) 0L else visit(root)
  }
}

object RTree {
  /** Entries per node. */
  val NodeCap = 16
}
