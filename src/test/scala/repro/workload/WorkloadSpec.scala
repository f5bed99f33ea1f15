package repro.workload

import repro.{SparkSpec, TestData}
import repro.core.{AggFunc, AggSpec}
import repro.geo.Pt

class WorkloadSpec extends SparkSpec {

  test("neighborhood generation is deterministic") {
    val a = Neighborhoods.generate()
    val b = Neighborhoods.generate()
    assert(a.length == 192)
    a.zip(b).foreach { case (p, q) => assert(p.vertices == q.vertices) }
  }

  test("neighborhoods are simple quadrilaterals inside the NYC bbox") {
    Neighborhoods.generate().foreach { p =>
      assert(p.vertices.length == 4)
      assert(p.area > 0)
      p.vertices.foreach { v =>
        assert(Neighborhoods.Bounds.contains(v), s"vertex $v outside bbox")
      }
    }
  }

  test("neighborhoods partition the bbox (areas sum to bbox area)") {
    val polys = Neighborhoods.generate()
    val total = polys.map(_.area).sum
    val bbox  = Neighborhoods.Bounds
    assert(math.abs(total - bbox.width * bbox.height) < 1e-9 * bbox.width * bbox.height)
  }

  test("every interior point belongs to at least one neighborhood") {
    val polys = Neighborhoods.generate()
    val rnd   = new scala.util.Random(31)
    val b     = Neighborhoods.Bounds
    var found = 0
    for (_ <- 1 to 2000) {
      val p = Pt(b.minX + rnd.nextDouble() * b.width, b.minY + rnd.nextDouble() * b.height)
      if (polys.exists(_.contains(p))) found += 1
    }
    // boundary points can fall through ray-casting ties; demand near-total coverage
    assert(found >= 1995, s"covered only $found/2000")
  }

  test("skewed selection picks 10% deterministically") {
    val a = Workloads.skewedIndices(192)
    val b = Workloads.skewedIndices(192)
    assert(a == b)
    assert(a.length == 19)
    assert(a.distinct.length == a.length)
    assert(a.forall(i => i >= 0 && i < 192))
  }

  test("combined workload is base plus k skewed runs") {
    val c = Workloads.combined(192, 4)
    assert(c.length == 192 + 4 * 19)
    assert(c.take(192) == (0 until 192))
    val skew = Workloads.skewedIndices(192)
    assert(c.drop(192).grouped(19).forall(_ == skew))
  }

  test("aggregate subsets grow by prefix and cover all columns at 7") {
    assert(Workloads.aggSubset(1) == Seq(AggSpec(AggFunc.Count)))
    assert(Workloads.aggSubset(2).length == 2)
    assert(Workloads.aggSubset(8).length == 8)
    val cols = AggSpec.neededCols(Workloads.SevenAggs).toSet
    assert(cols == Set(0, 1, 2))
  }

  test("selectivityRect hits the target fraction") {
    val raw = TestData.raw
    for (frac <- Seq(0.01, 0.1, 0.5)) {
      val (poly, achieved) = Workloads.selectivityRect(raw.lons, raw.lats, frac)
      assert(math.abs(achieved - frac) < frac * 0.2 + 0.002,
        s"target $frac achieved $achieved")
      assert(poly.vertices.length == 4)
      // verify achieved selectivity against an independent count
      val exact = TestData.exactPolygonCount(raw, poly)
      assert(math.abs(exact.toDouble / raw.size - achieved) < 0.01)
    }
  }

  test("selectivity rectangles are nested for growing fractions") {
    val raw = TestData.raw
    val r1  = Workloads.selectivityRect(raw.lons, raw.lats, 0.01)._1.bbox
    val r2  = Workloads.selectivityRect(raw.lons, raw.lats, 0.25)._1.bbox
    assert(r2.containsBox(r1))
  }
}
