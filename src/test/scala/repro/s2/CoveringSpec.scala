package repro.s2

import repro.SparkSpec
import repro.geo.{BBox, Polygon, Pt}
import scala.util.Random

class CoveringSpec extends SparkSpec {

  // A neighborhood-sized quad near Manhattan.
  private val quad = Polygon(IndexedSeq(
    Pt(-74.00, 40.72), Pt(-73.97, 40.715), Pt(-73.965, 40.745), Pt(-73.995, 40.75)))

  private def randomPointsIn(b: BBox, n: Int, seed: Long): Seq[Pt] = {
    val rnd = new Random(seed)
    (1 to n).map(_ => Pt(b.minX + rnd.nextDouble() * b.width, b.minY + rnd.nextDouble() * b.height))
  }

  test("exterior covering cells are disjoint and sorted") {
    val cells = Covering.exterior(quad, 15)
    assert(cells.nonEmpty)
    assert(cells.map(_.id) == cells.map(_.id).sorted)
    for (Seq(a, b) <- cells.sliding(2).toSeq if cells.length > 1)
      assert(a.rangeMax < b.rangeMin, s"$a overlaps $b")
    assert(cells.forall(_.level <= 15))
  }

  test("exterior covering contains every point of the polygon") {
    val cells = Covering.exterior(quad, 16)
    val inPoly = randomPointsIn(quad.bbox, 2000, 1).filter(quad.contains)
    assert(inPoly.nonEmpty)
    inPoly.foreach { p =>
      val leaf = CellId.fromPoint(p.x, p.y)
      assert(cells.exists(_.contains(leaf)), s"uncovered point $p")
    }
  }

  test("maxLevel bounds the error: covering area shrinks toward polygon area") {
    def coveringAreaDeg(cells: Seq[CellId]): Double =
      cells.map { c => val b = c.bounds; b.width * b.height }.sum
    val coarse = coveringAreaDeg(Covering.exterior(quad, 12))
    val mid    = coveringAreaDeg(Covering.exterior(quad, 15))
    val fine   = coveringAreaDeg(Covering.exterior(quad, 18))
    assert(coarse >= mid && mid >= fine)
    assert(fine < quad.area * 1.2, s"fine covering $fine vs poly area ${quad.area}")
    assert(fine >= quad.area * 0.99)
  }

  test("covering a tiny polygon yields at least one cell") {
    val tiny = Polygon(IndexedSeq(
      Pt(-73.98, 40.75), Pt(-73.9799, 40.75), Pt(-73.9799, 40.7501), Pt(-73.98, 40.7501)))
    val cells = Covering.exterior(tiny, 17)
    assert(cells.nonEmpty)
    assert(Covering.exterior(tiny, 30).nonEmpty)
  }

  test("startCell contains the polygon bbox") {
    val b0 = quad.bbox
    val sc = CellId.fromPoint(b0.minX, b0.minY, Covering.startLevel(b0, 17))
    val b  = sc.bounds
    assert(b.containsBox(quad.bbox) || sc.level == 17)
  }

  test("interiorRect lies inside the polygon") {
    val r = Covering.interiorRect(quad)
    assert(quad.relateBox(r) == repro.geo.BoxRelation.ContainsBox)
    assert(r.width > 0 && r.height > 0)
    // and it should be a decent fraction of the polygon
    assert(r.width * r.height > quad.area * 0.1)
  }

  test("interiorRect works for a triangle (centroid fallback)") {
    val tri = Polygon(IndexedSeq(Pt(0, 0), Pt(1, 0), Pt(0.5, 1)))
    val r = Covering.interiorRect(tri)
    assert(tri.relateBox(r) == repro.geo.BoxRelation.ContainsBox)
  }

  test("count of covering cells grows with maxLevel for a fixed polygon") {
    val sizes = Seq(12, 14, 16, 18).map(l => Covering.exterior(quad, l).length)
    assert(sizes == sizes.sorted, s"not monotone: $sizes")
    assert(sizes.last > sizes.head)
  }
}
