package repro.geo

import repro.SparkSpec
import scala.util.Random

class GeometrySpec extends SparkSpec {

  private val square = Polygon(IndexedSeq(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)))
  private val triangle = Polygon(IndexedSeq(Pt(0, 0), Pt(6, 0), Pt(0, 6)))
  // Concave "L" shape
  private val ell = Polygon(IndexedSeq(
    Pt(0, 0), Pt(4, 0), Pt(4, 1), Pt(1, 1), Pt(1, 4), Pt(0, 4)))

  test("bbox of a polygon") {
    assert(square.bbox == BBox(0, 0, 4, 4))
    assert(triangle.bbox == BBox(0, 0, 6, 6))
  }

  test("point-in-polygon: interior, exterior") {
    assert(square.contains(Pt(2, 2)))
    assert(!square.contains(Pt(5, 2)))
    assert(!square.contains(Pt(-1, -1)))
    assert(triangle.contains(Pt(1, 1)))
    assert(!triangle.contains(Pt(4, 4)))
  }

  test("point-in-polygon handles concave shapes") {
    assert(ell.contains(Pt(0.5, 0.5)))
    assert(ell.contains(Pt(3, 0.5)))
    assert(ell.contains(Pt(0.5, 3)))
    assert(!ell.contains(Pt(3, 3))) // inside bbox, outside the L
    assert(!ell.contains(Pt(2, 2)))
  }

  test("point-in-polygon agrees with area-sign reference on random convex polys") {
    val rnd = new Random(5)
    for (_ <- 1 to 50) {
      val cx = rnd.nextDouble() * 10
      val cy = rnd.nextDouble() * 10
      val r  = 1 + rnd.nextDouble() * 3
      val k  = 5 + rnd.nextInt(5)
      val poly = Polygon((0 until k).map { i =>
        val a = 2 * math.Pi * i / k
        Pt(cx + r * math.cos(a), cy + r * math.sin(a))
      })
      for (_ <- 1 to 40) {
        val px = cx + (rnd.nextDouble() - 0.5) * 4 * r
        val py = cy + (rnd.nextDouble() - 0.5) * 4 * r
        // convex reference: inside iff same orientation sign for all edges
        val signs = (0 until k).map { i =>
          val a = poly.vertices(i)
          val b = poly.vertices((i + 1) % k)
          math.signum((b.x - a.x) * (py - a.y) - (b.y - a.y) * (px - a.x))
        }
        val refInside = signs.forall(_ > 0) || signs.forall(_ < 0)
        val dist = math.hypot(px - cx, py - cy)
        // skip near-boundary points where the two tests may legitimately differ
        if (math.abs(dist - r) > 1e-6 && signs.forall(_ != 0))
          assert(poly.contains(Pt(px, py)) == refInside)
      }
    }
  }

  test("segment intersection: crossing, parallel, touching, collinear") {
    assert(Geometry.segmentsIntersectXY(0, 0, 2, 2, 0, 2, 2, 0))
    assert(!Geometry.segmentsIntersectXY(0, 0, 1, 0, 0, 1, 1, 1))
    assert(Geometry.segmentsIntersectXY(0, 0, 2, 0, 1, 0, 1, 1)) // T-touch
    assert(Geometry.segmentsIntersectXY(0, 0, 2, 0, 1, 0, 3, 0)) // collinear overlap
    assert(!Geometry.segmentsIntersectXY(0, 0, 1, 0, 2, 0, 3, 0)) // collinear apart
  }

  test("relateBox: disjoint, contained, overlapping") {
    assert(square.relateBox(BBox(1, 1, 3, 3)) == BoxRelation.ContainsBox)
    assert(square.relateBox(BBox(5, 5, 6, 6)) == BoxRelation.Disjoint)
    assert(square.relateBox(BBox(3, 3, 5, 5)) == BoxRelation.Intersects)
    // box containing the whole polygon is an intersection, not containment
    assert(square.relateBox(BBox(-1, -1, 5, 5)) == BoxRelation.Intersects)
  }

  test("relateBox on concave polygon: bbox-inside but polygon-outside box") {
    // box in the concave notch of the L: inside the bbox, outside the polygon
    assert(ell.relateBox(BBox(2.5, 2.5, 3.5, 3.5)) == BoxRelation.Disjoint)
    assert(ell.relateBox(BBox(0.2, 0.2, 0.8, 0.8)) == BoxRelation.ContainsBox)
    assert(ell.relateBox(BBox(0.5, 0.5, 2, 2)) == BoxRelation.Intersects)
  }

  test("relateBox ContainsBox implies all random points in box are inside polygon") {
    val rnd = new Random(6)
    for (_ <- 1 to 200) {
      val x0 = rnd.nextDouble() * 6 - 1
      val y0 = rnd.nextDouble() * 6 - 1
      val b  = BBox(x0, y0, x0 + rnd.nextDouble() * 2, y0 + rnd.nextDouble() * 2)
      triangle.relateBox(b) match {
        case BoxRelation.ContainsBox =>
          for (_ <- 1 to 20) {
            val p = Pt(b.minX + rnd.nextDouble() * b.width, b.minY + rnd.nextDouble() * b.height)
            assert(triangle.contains(p), s"$p should be in triangle, box=$b")
          }
        case BoxRelation.Disjoint =>
          for (_ <- 1 to 20) {
            val p = Pt(b.minX + rnd.nextDouble() * b.width, b.minY + rnd.nextDouble() * b.height)
            assert(!triangle.contains(p), s"$p should be outside, box=$b")
          }
        case BoxRelation.Intersects => ()
      }
    }
  }

  test("area: square, triangle, concave") {
    assert(math.abs(square.area - 16.0) < 1e-12)
    assert(math.abs(triangle.area - 18.0) < 1e-12)
    assert(math.abs(ell.area - 7.0) < 1e-12)
  }

  test("a polygon rejects NaN and infinite vertices, naming the index and the value") {
    Seq((Pt(Double.NaN, 0), "vertex 1 is not finite: Pt(NaN,0.0)"),
        (Pt(Double.PositiveInfinity, 0), "vertex 1 is not finite: Pt(Infinity,0.0)"),
        (Pt(3, Double.NegativeInfinity), "vertex 1 is not finite: Pt(3.0,-Infinity)"),
        (Pt(Double.NegativeInfinity, Double.NaN), "vertex 1 is not finite: Pt(-Infinity,NaN)"))
      .foreach { case (bad, named) =>
        val e = intercept[IllegalArgumentException](Polygon(IndexedSeq(Pt(0, 0), bad, Pt(0, 6))))
        assert(e.getMessage.contains(named), e.getMessage)
      }
    // Finite vertices outside the world stay valid: coverings clamp them.
    assert(Polygon(IndexedSeq(Pt(-200, -100), Pt(200, -100), Pt(0, 100))).bbox.minX == -200)
  }

  test("BBox predicates") {
    val b = BBox(0, 0, 2, 2)
    assert(b.contains(Pt(1, 1)) && b.contains(Pt(0, 0)) && b.contains(Pt(2, 2)))
    assert(!b.contains(Pt(2.1, 1)))
    assert(b.intersects(BBox(1, 1, 3, 3)))
    assert(b.intersects(BBox(2, 2, 3, 3))) // touching corners count
    assert(!b.intersects(BBox(2.5, 2.5, 3, 3)))
    assert(b.containsBox(BBox(0.5, 0.5, 1.5, 1.5)))
    assert(!b.containsBox(BBox(1, 1, 3, 3)))
  }
}
