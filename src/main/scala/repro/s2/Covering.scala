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
    val start = startCell(poly.bbox, maxLevel)
    val grid  = descend(start.level, start.pos)
    val w     = new Walk(poly, maxLevel)
    w.visit((grid >>> 32).toInt, (grid >>> 2).toInt & 0x3fffffff, start.level, start.pos,
      grid.toInt & 3)
    java.util.Arrays.copyOf(w.ids, w.n)
  }

  /** Grid coordinates and orientation of the cell at `pos` of `level`,
    * packed as `x << 32 | y << 2 | orient`: the walk's child step taken
    * once per position digit, from the top, starting at the level-0 cell.
    * (x, y) equals `Hilbert.d2xy(level, pos)`.
    */
  private[s2] def descend(level: Int, pos: Long): Long = {
    var x, y, orient = 0
    var l = 1
    while (l <= level) {
      val k  = ((pos >>> (2 * (level - l))) & 3L).toInt
      val ij = PosToIJ(orient << 2 | k)
      x = x << 1 | ij >> 1
      y = y << 1 | ij & 1
      orient ^= PosToOrientation(k)
      l += 1
    }
    x.toLong << 32 | y.toLong << 2 | orient
  }

  /** Smallest single cell containing the box, capped at `maxLevel`. */
  private[s2] def startCell(b: BBox, maxLevel: Int): CellId = {
    val c1 = CellId.fromPoint(b.minX, b.minY)
    val c2 = CellId.fromPoint(b.maxX, b.maxY)
    val anc = CellId.commonAncestor(c1, c2)
    if (anc.level > maxLevel) anc.parent(maxLevel) else anc
  }

  /** The curve's child order, in S2's convention (s2geometry.io,
    * `S2CellId`): bit 0 of a cell's orientation swaps x and y, bit 1
    * inverts both. Child k of a cell with orientation `orient` is its
    * quadrant `ij = PosToIJ(orient << 2 | k) = (dx << 1) | dy` and has
    * orientation `orient ^ PosToOrientation(k)`. From orientation 0 at
    * level 0 this is the curve of [[Hilbert]].
    */
  private val PosToIJ: Array[Int] = Array(
    0, 1, 3, 2, // orientation 0
    0, 2, 3, 1, // swap
    3, 2, 0, 1, // invert
    3, 1, 0, 2, // swap and invert
  )
  private val PosToOrientation: Array[Int] = Array(1, 0, 0, 3)

  /** Cell width and height in degrees per level, as [[CellId.bounds]]
    * computes them, so the walk's boxes are bit-identical to its.
    */
  private val CellW: Array[Double] =
    Array.tabulate(CellId.MaxLevel + 1)(l => (CellId.WorldMaxX - CellId.WorldMinX) / (1L << l))
  private val CellH: Array[Double] =
    Array.tabulate(CellId.MaxLevel + 1)(l => (CellId.WorldMaxY - CellId.WorldMinY) / (1L << l))

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
      val w  = CellW(level)
      val h  = CellH(level)
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
              val ij = PosToIJ(orient << 2 | k)
              visit(x << 1 | ij >> 1, y << 1 | ij & 1, level + 1, pos << 2 | k,
                orient ^ PosToOrientation(k))
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
