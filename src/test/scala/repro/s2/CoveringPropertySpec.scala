package repro.s2

import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropertyChecks, SparkSpec, TestData}
import repro.core.{AggFunc, AggSpec, AggState, GeoBlock}
import repro.geo.{BBox, BoxRelation, Polygon, Pt}
import repro.workload.{Neighborhoods, Workloads}
import scala.collection.mutable.ArrayBuffer

/** Generated checks of the exterior covering over random polygons inside
  * the NYC bbox, including self-intersecting ones (vertices in random
  * order) and zero-area ones (collinear vertices). They define what a
  * covering of a degenerate polygon is: the cells that hold its edges and
  * its even-odd interior, like any other polygon's. They also check the
  * grid-coordinate walk against the plain recursion over `CellId`s, and
  * V1's range-merging `select` against its per-cell read.
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

  /** Axis-aligned rectangles from 1e-4 of the NYC bbox up to most of the
    * world, clamped to the world.
    */
  private val largeRect: Gen[Polygon] =
    for {
      cx     <- Gen.choose(-180.0, 180.0)
      cy     <- Gen.choose(-90.0, 90.0)
      logExt <- Gen.choose(-4.0, 2.5)
      aspect <- Gen.choose(0.2, 5.0)
    } yield {
      val hw = B.width * math.pow(10, logExt) / 2
      val hh = hw * aspect
      val x0 = math.max(-180.0, cx - hw); val x1 = math.min(180.0, cx + hw)
      val y0 = math.max(-90.0, cy - hh); val y1 = math.min(90.0, cy + hh)
      Polygon(IndexedSeq(Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1)))
    }

  /** Polygons and rectangles whose vertices lie exactly on the grid lines
    * of a random level: each coordinate is `WorldMin + i * cell size`, the
    * walk's own box formula, so vertices and edges sit on cell boundaries
    * at that level and every finer one.
    */
  private val boundaryPoly: Gen[Polygon] = {
    def snapX(x: Double, l: Int) =
      CellId.WorldMinX + math.floor((x - CellId.WorldMinX) / CellId.CellW(l)) * CellId.CellW(l)
    def snapY(y: Double, l: Int) =
      CellId.WorldMinY + math.floor((y - CellId.WorldMinY) / CellId.CellH(l)) * CellId.CellH(l)
    for {
      l    <- Gen.choose(8, 24)
      poly <- Gen.oneOf(randomPoly, largeRect)
    } yield Polygon(poly.vertices.map(p => Pt(snapX(p.x, l), snapY(p.y, l))))
  }

  /** The start cell by its definition: the deepest common ancestor of the
    * leaves at the box's corners, capped at `maxLevel`.
    */
  private def ancestorStartCell(b: BBox, maxLevel: Int): CellId = {
    val anc = CellId.commonAncestor(CellId.fromPoint(b.minX, b.minY), CellId.fromPoint(b.maxX, b.maxY))
    if (anc.level > maxLevel) anc.parent(maxLevel) else anc
  }

  /** The covering as the plain recursion computes it: `relateBox` on each
    * visited cell's `bounds`, recursing into `child(0..3)`.
    */
  private def referenceExterior(poly: Polygon, maxLevel: Int): Array[Long] = {
    val out = ArrayBuffer.empty[Long]
    def recurse(cell: CellId): Unit = poly.relateBox(cell.bounds) match {
      case BoxRelation.Disjoint    => ()
      case BoxRelation.ContainsBox => out += cell.id
      case BoxRelation.Intersects =>
        if (cell.level >= maxLevel) out += cell.id
        else {
          var i = 0
          while (i < 4) { recurse(cell.child(i)); i += 1 }
        }
    }
    recurse(ancestorStartCell(poly.bbox, maxLevel))
    out.toArray
  }

  /** A maxLevel from the named levels or any level, capped so that about
    * 2^13 cells of that level line the polygon's edges: the reference
    * recursion stays fast on large polygons.
    */
  private def levelFor(poly: Polygon): Gen[Int] = {
    val vs  = poly.vertices
    val len = vs.indices.map { i =>
      val (a, b) = (vs(i), vs((i + 1) % vs.length))
      math.hypot(a.x - b.x, a.y - b.y)
    }.sum
    val cap = if (len == 0) 30 else (math.log(8192 * 180 / len) / math.log(2)).toInt
    Gen.oneOf(Gen.oneOf(0, 13, 17, 21, 30), Gen.choose(0, 30)).map(l => math.max(0, math.min(l, cap)))
  }

  private def sameAsReference(poly: Polygon, maxLevel: Int): Boolean =
    java.util.Arrays.equals(Covering.exteriorIds(poly, maxLevel), referenceExterior(poly, maxLevel))

  private val NamedLevels = Seq(0, 13, 17, 21)

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

  test("the walk returns the reference recursion's ids on the neighborhoods") {
    for (poly <- Neighborhoods.generate(); l <- NamedLevels)
      assert(sameAsReference(poly, l), s"level $l, $poly")
  }

  test("the walk returns the reference recursion's ids on the selectivity rectangles") {
    val raw = TestData.raw
    for (frac <- Seq(0.001, 0.01, 0.05, 0.2, 0.5, 0.9); l <- NamedLevels) {
      val (rect, _) = Workloads.selectivityRect(raw.lons, raw.lats, frac)
      assert(sameAsReference(rect, l), s"fraction $frac, level $l")
    }
  }

  test("the walk returns the reference recursion's ids on random polygons and rectangles") {
    val gen = Gen.oneOf(anyPoly, largeRect, boundaryPoly).flatMap(p => levelFor(p).map(p -> _))
    check(Prop.forAllNoShrink(gen) { case (poly, maxLevel) =>
      Prop(sameAsReference(poly, maxLevel)) :| s"level $maxLevel, $poly"
    }, minSuccessful = 400)
  }

  test("the walk's grid coordinates equal Hilbert.d2xy") {
    // The walk starts from gridToPos's position and orientation and steps
    // down with the tables as posToGrid does; both must name the same
    // cell, in the same orientation, as the reference curve.
    val cell = for {
      level <- Gen.oneOf(Gen.choose(0, 30), Gen.oneOf(0, 1, 30))
      pos   <- Gen.choose(0L, (1L << (2 * level)) - 1)
    } yield (level, pos)
    check(Prop.forAllNoShrink(cell) { case (level, pos) =>
      val grid   = CellId.posToGrid(level, pos)
      val (x, y) = (grid >>> 32, (grid >>> 2) & 0x3fffffffL)
      Prop(Hilbert.d2xy(level, pos) == ((x, y)) &&
        CellId.gridToPos(level, x, y) == (pos << 2 | grid & 3)) :| s"level $level, pos $pos"
    }, minSuccessful = 500)
  }

  test("the start cell equals the corners' common ancestor capped at maxLevel") {
    def box(x0: Double, y0: Double, x1: Double, y1: Double) =
      BBox(math.min(x0, x1), math.min(y0, y1), math.max(x0, x1), math.max(y0, y1))
    val lon = Gen.choose(-180.0, 180.0)
    val lat = Gen.choose(-90.0, 90.0)
    // Random corners, 1e-7 degrees up to the world apart.
    val random = for {
      x0 <- lon; y0 <- lat
      logW <- Gen.choose(-7.0, 2.6); logH <- Gen.choose(-7.0, 2.3)
    } yield box(x0, y0, math.min(180.0, x0 + math.pow(10, logW)), math.min(90.0, y0 + math.pow(10, logH)))
    // Corners on the grid lines of a random level, a few cells apart.
    val onBoundaries = for {
      l  <- Gen.choose(0, 30)
      i0 <- Gen.choose(0L, 1L << l)
      j0 <- Gen.choose(0L, 1L << l)
      di <- Gen.choose(0L, 3L)
      dj <- Gen.choose(0L, 3L)
    } yield box(CellId.WorldMinX + i0 * CellId.CellW(l), CellId.WorldMinY + j0 * CellId.CellH(l),
      CellId.WorldMinX + math.min(i0 + di, 1L << l) * CellId.CellW(l),
      CellId.WorldMinY + math.min(j0 + dj, 1L << l) * CellId.CellH(l))
    // Boxes reaching past the world's edge, which the grid clamps.
    val pastTheEdge = for {
      x0 <- Gen.choose(-400.0, 180.0); y0 <- Gen.choose(-200.0, 90.0)
      x1 <- Gen.choose(-180.0, 400.0); y1 <- Gen.choose(-90.0, 200.0)
      edge <- Gen.oneOf(0, 1, 2, 3)
    } yield edge match {
      case 0 => box(math.min(x0, -180.5), y0, x1, y1)
      case 1 => box(x0, math.min(y0, -90.5), x1, y1)
      case 2 => box(x0, y0, math.max(x1, 180.5), y1)
      case _ => box(x0, y0, x1, math.max(y1, 90.5))
    }
    check(Prop.forAllNoShrink(Gen.oneOf(random, onBoundaries, pastTheEdge), Gen.choose(0, 30)) {
      (b, maxLevel) =>
        val start = CellId.fromPoint(b.minX, b.minY, Covering.startLevel(b, maxLevel))
        Prop(start.id == ancestorStartCell(b, maxLevel).id) :| s"$b, maxLevel $maxLevel"
    }, minSuccessful = 2000)
  }

  /** V1 `select` against the per-cell read of the same covering, bit for
    * bit, with all seven aggregates and with COUNT only.
    */
  private def selectIsPerCell(block: GeoBlock, poly: Polygon): Boolean = {
    val cells = Covering.exterior(poly, block.blockLevel)
    Seq(Workloads.SevenAggs, Seq(AggSpec(AggFunc.Count))).forall { specs =>
      val perCell = block.selectCells(cells, AggSpec.neededCols(specs)).extractAll(specs)
      java.util.Arrays.equals(block.select(poly, specs), perCell)
    }
  }

  test("select equals selectCells over the covering, bit for bit, on random polygons") {
    val blocks = Seq(TestData.block17, TestData.block14)
    check(Prop.forAllNoShrink(anyPoly, Gen.oneOf(blocks)) { (poly, block) =>
      selectIsPerCell(block, poly)
    }, minSuccessful = 200)
  }

  test("select equals selectCells on an empty result and on the whole block") {
    val block = TestData.block17
    val raw   = TestData.raw
    def rect(x0: Double, y0: Double, x1: Double, y1: Double) =
      Polygon(IndexedSeq(Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1)))
    val outside = rect(2.0, 48.0, 2.5, 48.5)
    assert(block.select(outside, Workloads.SevenAggs)(0) == 0.0)
    assert(selectIsPerCell(block, outside))
    val whole = rect(raw.lons.min - 0.01, raw.lats.min - 0.01, raw.lons.max + 0.01, raw.lats.max + 0.01)
    assert(block.select(whole, Workloads.SevenAggs)(0) == raw.size.toDouble)
    assert(selectIsPerCell(block, whole))
  }

  test("select equals selectCells where a merged range joins cells of different levels") {
    val block = TestData.block17
    // Adjacent covering cells of different levels are not siblings, so a
    // range that merges them crosses a parent's boundary.
    val mixed = Neighborhoods.generate().filter { poly =>
      val cells = Covering.exterior(poly, block.blockLevel)
      cells.indices.drop(1).exists { i =>
        cells(i).rangeMin == cells(i - 1).rangeMax + 2 && cells(i).level != cells(i - 1).level
      }
    }
    assert(mixed.nonEmpty)
    mixed.foreach(poly => assert(selectIsPerCell(block, poly), poly))
  }
}
