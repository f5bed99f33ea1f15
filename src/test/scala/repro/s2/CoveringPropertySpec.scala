package repro.s2

import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropertyChecks, SparkSpec, TestData}
import repro.core.AggState
import repro.geo.{Polygon, Pt}
import repro.workload.{Neighborhoods, Workloads}

/** Generated checks of the exterior covering over random polygons inside
  * the NYC bbox, including self-intersecting ones (vertices in random
  * order) and zero-area ones (collinear vertices). They define what a
  * covering of a degenerate polygon is: the cells that hold its edges and
  * its even-odd interior, like any other polygon's.
  */
class CoveringPropertySpec extends SparkSpec with PropertyChecks {

  private val B = Neighborhoods.Bounds

  private def clampX(x: Double) = math.min(B.maxX, math.max(B.minX, x))
  private def clampY(y: Double) = math.min(B.maxY, math.max(B.minY, y))

  private val pointIn: Gen[Pt] =
    for (x <- Gen.choose(B.minX, B.maxX); y <- Gen.choose(B.minY, B.maxY)) yield Pt(x, y)

  /** 3–8 vertices in random order around a random centre, spread over
    * 1e-5 up to all of the bbox; their edges often cross.
    */
  private val randomPoly: Gen[Polygon] =
    for {
      c      <- pointIn
      logExt <- Gen.choose(-5.0, 0.0)
      n      <- Gen.choose(3, 8)
      uvs    <- Gen.listOfN(n, Gen.zip(Gen.choose(-1.0, 1.0), Gen.choose(-1.0, 1.0)))
    } yield {
      val hw = B.width * math.pow(10, logExt) / 2
      val hh = B.height * math.pow(10, logExt) / 2
      Polygon(uvs.map { case (u, v) => Pt(clampX(c.x + u * hw), clampY(c.y + v * hh)) }.toIndexedSeq)
    }

  /** 3–8 vertices on one segment, which may be horizontal or vertical:
    * a polygon of zero area.
    */
  private val collinearPoly: Gen[Polygon] =
    for {
      a   <- pointIn
      b0  <- pointIn
      dir <- Gen.oneOf("any", "horizontal", "vertical")
      n   <- Gen.choose(3, 8)
      ts  <- Gen.listOfN(n, Gen.choose(0.0, 1.0))
    } yield {
      val b = dir match {
        case "horizontal" => Pt(b0.x, a.y)
        case "vertical"   => Pt(a.x, b0.y)
        case _            => b0
      }
      Polygon(ts.map(t => Pt(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))).toIndexedSeq)
    }

  private val anyPoly: Gen[Polygon] = Gen.frequency(3 -> randomPoly, 1 -> collinearPoly)

  /** Sample points as fractions of a polygon's bbox. */
  private val samples: Gen[List[(Double, Double)]] =
    Gen.listOfN(50, Gen.zip(Gen.choose(0.0, 1.0), Gen.choose(0.0, 1.0)))

  /** Is the leaf in one of the sorted, disjoint cells? */
  private def covered(cells: IndexedSeq[CellId], leaf: CellId): Boolean = {
    var lo = 0
    var hi = cells.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (cells(mid).rangeMax < leaf.id) lo = mid + 1
      else if (cells(mid).rangeMin > leaf.id) hi = mid - 1
      else return true
    }
    false
  }

  test("covering cells are sorted, disjoint and no finer than maxLevel") {
    check(Prop.forAllNoShrink(anyPoly, Gen.choose(8, 18)) { (poly, maxLevel) =>
      val cells = Covering.exterior(poly, maxLevel)
      cells.nonEmpty && cells.forall(_.level <= maxLevel) &&
        cells.indices.drop(1).forall(i => cells(i - 1).rangeMax < cells(i).rangeMin)
    }, 200)
  }

  test("every vertex and every sampled inside point lies in a covering cell") {
    check(Prop.forAllNoShrink(anyPoly, Gen.choose(8, 18), samples) { (poly, maxLevel, uvs) =>
      val cells = Covering.exterior(poly, maxLevel)
      val b     = poly.bbox
      val inside = uvs.map { case (u, v) => Pt(b.minX + u * b.width, b.minY + v * b.height) }
        .filter(p => poly.containsXY(p.x, p.y))
      (poly.vertices ++ inside).forall(p => covered(cells, CellId.fromPoint(p.x, p.y)))
    }, 200)
  }

  test("block.count over the covering is at least the exact point count") {
    val block = TestData.block17
    check(Prop.forAllNoShrink(anyPoly) { poly =>
      TestData.countOf(block, poly) >= TestData.exactPolygonCount(TestData.raw, poly)
    })
  }

  test("block.select equals a brute-force scan of the covering's key ranges") {
    val raw   = TestData.raw
    val block = TestData.block17
    val cols  = AggState.allCols(raw.nCols)
    check(Prop.forAllNoShrink(anyPoly) { poly =>
      val brute = new AggState(raw.nCols)
      Covering.exterior(poly, block.blockLevel).foreach { c =>
        val (from, until) = raw.rangeOf(c)
        var i = from
        while (i < until) { brute.addTuple(raw.values, i, cols); i += 1 }
      }
      val got = block.select(poly, Workloads.SevenAggs)
      val exp = brute.extractAll(Workloads.SevenAggs)
      got.length == exp.length && got.indices.forall(i => Oracle.close(got(i), exp(i)))
    })
  }
}
