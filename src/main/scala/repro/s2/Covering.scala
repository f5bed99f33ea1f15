package repro.s2

import repro.geo.{BBox, BoxRelation, Polygon}
import scala.collection.mutable.ArrayBuffer

/** Polygon-to-cell coverings — the analog of S2RegionCoverer.
  *
  * An *exterior* covering is a set of disjoint cells whose union contains
  * the polygon: cells fully inside are kept as coarse as possible,
  * boundary cells are subdivided down to `maxLevel` and kept. This is the
  * only step of the GeoBlocks query pipeline that introduces error, and
  * the error is bounded by the diagonal of a `maxLevel` cell.
  */
object Covering {

  /** Exterior covering with cells of level at most `maxLevel`, in
    * ascending id order: the pre-order walk visits `child(0..3)`, whose
    * id ranges ascend and are disjoint, so the cells come out sorted.
    */
  def exterior(poly: Polygon, maxLevel: Int): IndexedSeq[CellId] = {
    require(maxLevel >= 0 && maxLevel <= CellId.MaxLevel)
    val out = ArrayBuffer.empty[CellId]
    def recurse(cell: CellId): Unit = poly.relateBox(cell.bounds) match {
      case BoxRelation.Disjoint    => ()
      case BoxRelation.ContainsBox => out += cell
      case BoxRelation.Intersects =>
        if (cell.level >= maxLevel) out += cell
        else {
          var i = 0
          while (i < 4) { recurse(cell.child(i)); i += 1 }
        }
    }
    recurse(startCell(poly.bbox, maxLevel))
    out.toIndexedSeq
  }

  /** Smallest single cell containing the box, capped at `maxLevel`. */
  private[s2] def startCell(b: BBox, maxLevel: Int): CellId = {
    val c1 = CellId.fromPoint(b.minX, b.minY)
    val c2 = CellId.fromPoint(b.maxX, b.maxY)
    val anc = CellId.commonAncestor(c1, c2)
    if (anc.level > maxLevel) anc.parent(maxLevel) else anc
  }

  /** Largest axis-aligned rectangle inside the polygon found by shrinking
    * its bounding box toward the bbox center — the "interior rectangle"
    * the paper feeds to the PHTree/RTree baselines. The scale is
    * bisected 24 times.
    */
  def interiorRect(poly: Polygon): BBox = {
    def inside(b: BBox): Boolean = poly.relateBox(b) == BoxRelation.ContainsBox
    var lo = 0.0 // known-inside scale (0 = degenerate point at center)
    var hi = 1.0
    val center = repro.geo.Pt(poly.bbox.centerX, poly.bbox.centerY)
    // If the bbox center is outside the polygon, fall back to a vertexward
    // nudge: use the centroid of the vertices instead.
    val c =
      if (poly.contains(center)) center
      else {
        val cx = poly.vertices.map(_.x).sum / poly.vertices.length
        val cy = poly.vertices.map(_.y).sum / poly.vertices.length
        repro.geo.Pt(cx, cy)
      }
    def boxAt(f: Double): BBox = {
      val hw = math.max(poly.bbox.width / 2 * f, 1e-12)
      val hh = math.max(poly.bbox.height / 2 * f, 1e-12)
      BBox(c.x - hw, c.y - hh, c.x + hw, c.y + hh)
    }
    var i = 0
    while (i < 24) {
      val mid = (lo + hi) / 2
      if (inside(boxAt(mid))) lo = mid else hi = mid
      i += 1
    }
    boxAt(math.max(lo, 1e-9))
  }
}
