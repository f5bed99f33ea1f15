package repro.geo

/** A point in lon/lat degrees (x = longitude, y = latitude). */
final case class Pt(x: Double, y: Double)

/** An axis-aligned box in lon/lat degrees; min-inclusive, max-exclusive
  * semantics are not enforced here — predicates treat boundaries as
  * closed, which only makes coverings conservative (never lossy).
  */
final case class BBox(minX: Double, minY: Double, maxX: Double, maxY: Double) {
  require(minX <= maxX && minY <= maxY, s"degenerate box $this")

  def width: Double  = maxX - minX
  def height: Double = maxY - minY
  def centerX: Double = (minX + maxX) / 2
  def centerY: Double = (minY + maxY) / 2

  def contains(p: Pt): Boolean =
    p.x >= minX && p.x <= maxX && p.y >= minY && p.y <= maxY

  def containsBox(o: BBox): Boolean =
    o.minX >= minX && o.maxX <= maxX && o.minY >= minY && o.maxY <= maxY

  def intersects(o: BBox): Boolean =
    !(o.minX > maxX || o.maxX < minX || o.minY > maxY || o.maxY < minY)
}

/** How a polygon relates to an axis-aligned box. */
sealed trait BoxRelation
object BoxRelation {
  /** No common area. */
  case object Disjoint extends BoxRelation
  /** The box lies entirely inside the polygon. */
  case object ContainsBox extends BoxRelation
  /** Partial overlap (or the polygon lies inside the box). */
  case object Intersects extends BoxRelation
}

/** A simple (non-self-intersecting) polygon without holes.
  *
  * Vertices are an open ring (last vertex != first); orientation is
  * irrelevant for the even-odd point test used here.
  */
final case class Polygon(vertices: IndexedSeq[Pt]) {
  require(vertices.length >= 3, "polygon needs at least 3 vertices")
  vertices.indices.foreach { i =>
    require(java.lang.Double.isFinite(vertices(i).x) && java.lang.Double.isFinite(vertices(i).y),
      s"vertex $i is not finite: ${vertices(i)}")
  }

  // Flat coordinate arrays: relateBox/contains sit on the covering hot
  // path and must not allocate.
  private val nVerts: Int       = vertices.length
  private val xs: Array[Double] = vertices.map(_.x).toArray
  private val ys: Array[Double] = vertices.map(_.y).toArray

  val bbox: BBox = BBox(xs.min, ys.min, xs.max, ys.max)

  /** Even-odd (ray casting) point-in-polygon test; boundary points may
    * report either side — acceptable because covering predicates are
    * conservative elsewhere.
    */
  def containsXY(px: Double, py: Double): Boolean = {
    var inside = false
    var j = nVerts - 1
    var i = 0
    while (i < nVerts) {
      if ((ys(i) > py) != (ys(j) > py)) {
        val xCross = (xs(j) - xs(i)) * (py - ys(i)) / (ys(j) - ys(i)) + xs(i)
        if (px < xCross) inside = !inside
      }
      j = i
      i += 1
    }
    inside
  }

  def contains(p: Pt): Boolean = containsXY(p.x, p.y)

  /** Classifies the box against this polygon — the covering predicate. */
  def relateBox(b: BBox): BoxRelation = relate(b.minX, b.minY, b.maxX, b.maxY)

  /** [[relateBox]] on the box's four coordinates. Allocation-free: the
    * covering walk calls it once per visited cell.
    */
  def relate(minX: Double, minY: Double, maxX: Double, maxY: Double): BoxRelation = {
    if (minX > bbox.maxX || maxX < bbox.minX || minY > bbox.maxY || maxY < bbox.minY)
      return BoxRelation.Disjoint
    // Any polygon edge crossing a box edge => partial overlap.
    var i = 0
    var j = nVerts - 1
    while (i < nVerts) {
      val ax = xs(j); val ay = ys(j)
      val cx = xs(i); val cy = ys(i)
      // Cheap reject: edge bbox vs box.
      if (!(math.max(ax, cx) < minX || math.min(ax, cx) > maxX ||
            math.max(ay, cy) < minY || math.min(ay, cy) > maxY)) {
        if (Geometry.segmentIntersectsBox(ax, ay, cx, cy, minX, minY, maxX, maxY))
          return BoxRelation.Intersects
      }
      j = i
      i += 1
    }
    // No edge crossings: the regions are nested or disjoint.
    if (containsXY(minX, minY)) BoxRelation.ContainsBox                 // box inside polygon
    else if (xs(0) >= minX && xs(0) <= maxX && ys(0) >= minY && ys(0) <= maxY)
      BoxRelation.Intersects                                            // polygon inside box
    else BoxRelation.Disjoint
  }

  /** Shoelace area (always positive). */
  def area: Double = {
    var s = 0.0
    var j = nVerts - 1
    var i = 0
    while (i < nVerts) {
      s += (vertices(j).x * vertices(i).y) - (vertices(i).x * vertices(j).y)
      j = i
      i += 1
    }
    math.abs(s) / 2
  }
}

object Geometry {
  private def orientXY(ax: Double, ay: Double, bx: Double, by: Double,
                       cx: Double, cy: Double): Double =
    (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

  private def onSegmentXY(ax: Double, ay: Double, bx: Double, by: Double,
                          px: Double, py: Double): Boolean =
    math.min(ax, bx) <= px && px <= math.max(ax, bx) &&
      math.min(ay, by) <= py && py <= math.max(ay, by)

  /** Closed-segment intersection on scalar coordinates; collinear
    * touching counts as an intersection (conservative for coverings).
    */
  def segmentsIntersectXY(p1x: Double, p1y: Double, p2x: Double, p2y: Double,
                          q1x: Double, q1y: Double, q2x: Double, q2y: Double): Boolean = {
    val d1 = orientXY(q1x, q1y, q2x, q2y, p1x, p1y)
    val d2 = orientXY(q1x, q1y, q2x, q2y, p2x, p2y)
    val d3 = orientXY(p1x, p1y, p2x, p2y, q1x, q1y)
    val d4 = orientXY(p1x, p1y, p2x, p2y, q2x, q2y)
    if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
        ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) return true
    if (d1 == 0 && onSegmentXY(q1x, q1y, q2x, q2y, p1x, p1y)) return true
    if (d2 == 0 && onSegmentXY(q1x, q1y, q2x, q2y, p2x, p2y)) return true
    if (d3 == 0 && onSegmentXY(p1x, p1y, p2x, p2y, q1x, q1y)) return true
    if (d4 == 0 && onSegmentXY(p1x, p1y, p2x, p2y, q2x, q2y)) return true
    false
  }

  /** Does the (closed) segment a-c cross any edge of the axis-aligned
    * box? The caller has already bbox-rejected fully-separated cases.
    */
  def segmentIntersectsBox(ax: Double, ay: Double, cx: Double, cy: Double,
                           minX: Double, minY: Double, maxX: Double, maxY: Double): Boolean =
    segmentsIntersectXY(ax, ay, cx, cy, minX, minY, maxX, minY) ||
      segmentsIntersectXY(ax, ay, cx, cy, maxX, minY, maxX, maxY) ||
      segmentsIntersectXY(ax, ay, cx, cy, maxX, maxY, minX, maxY) ||
      segmentsIntersectXY(ax, ay, cx, cy, minX, maxY, minX, minY)
}
