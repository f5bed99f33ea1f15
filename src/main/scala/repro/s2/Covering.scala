package repro.s2

import repro.geo.{BBox, BoxRelation, Polygon}

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
    * ascending id order (see [[exteriorIds]]).
    */
  def exterior(poly: Polygon, maxLevel: Int): IndexedSeq[CellId] = {
    val ids = exteriorIds(poly, maxLevel)
    Vector.tabulate(ids.length)(i => CellId(ids(i)))
  }

  /** Raw ids of the exterior covering with cells of level at most
    * `maxLevel`, ascending: the pre-order walk visits a cell's children
    * in curve order, whose id ranges ascend and are disjoint.
    */
  def exteriorIds(poly: Polygon, maxLevel: Int): Array[Long] = {
    require(maxLevel >= 0 && maxLevel <= CellId.MaxLevel)
    val b     = poly.bbox
    val level = startLevel(b, maxLevel)
    val x     = CellId.xCoord(b.minX) >>> (CellId.MaxLevel - level)
    val y     = CellId.yCoord(b.minY) >>> (CellId.MaxLevel - level)
    val start = CellId.gridToPos(level, x, y)
    val w     = new Walk(poly, maxLevel)
    w.visit(x.toInt, y.toInt, level, start >>> 2, start.toInt & 3)
    java.util.Arrays.copyOf(w.ids, w.n)
  }

  /** Level of the walk's start cell: the smallest cell holding the box,
    * capped at `maxLevel`. A level-L cell is the grid square named by the
    * top L bits of the level-30 coordinates, so the box's corners share a
    * level-L cell exactly when those bits agree.
    */
  private[s2] def startLevel(b: BBox, maxLevel: Int): Int = {
    val diff = (CellId.xCoord(b.minX) ^ CellId.xCoord(b.maxX)) |
      (CellId.yCoord(b.minY) ^ CellId.yCoord(b.maxY))
    math.min(maxLevel, CellId.MaxLevel - (64 - java.lang.Long.numberOfLeadingZeros(diff)))
  }

  /** One covering walk: classifies each visited cell's box against the
    * polygon on scalar coordinates and appends the kept cells' ids.
    */
  private final class Walk(poly: Polygon, maxLevel: Int) {
    var ids: Array[Long] = new Array[Long](128)
    var n: Int           = 0

    private def emit(level: Int, pos: Long): Unit = {
      if (n == ids.length) ids = java.util.Arrays.copyOf(ids, 2 * n)
      ids(n) = CellId.fromPosLevel(pos, level).id
      n += 1
    }

    def visit(x: Int, y: Int, level: Int, pos: Long, orient: Int): Unit = {
      val w  = CellId.CellW(level)
      val h  = CellId.CellH(level)
      val x0 = CellId.WorldMinX + x * w
      val y0 = CellId.WorldMinY + y * h
      poly.relate(x0, y0, x0 + w, y0 + h) match {
        case BoxRelation.Disjoint    => ()
        case BoxRelation.ContainsBox => emit(level, pos)
        case BoxRelation.Intersects =>
          if (level >= maxLevel) emit(level, pos)
          else {
            var k = 0
            while (k < 4) {
              val ij = CellId.PosToIJ(orient << 2 | k)
              visit(x << 1 | ij >> 1, y << 1 | ij & 1, level + 1, pos << 2 | k,
                orient ^ CellId.PosToOrientation(k))
              k += 1
            }
          }
      }
    }
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
