package repro.s2

import repro.SparkSpec
import scala.util.Random

class CellIdSpec extends SparkSpec {

  private val rnd = new Random(7)
  private def randLonLat(): (Double, Double) =
    (rnd.nextDouble() * 360 - 180, rnd.nextDouble() * 180 - 90)

  test("fromPosLevel/level/pos roundtrip across levels") {
    for (level <- 0 to 30) {
      val maxPos = if (level == 0) 1L else 1L << (2 * level)
      for (_ <- 1 to 50) {
        val pos  = if (level == 0) 0L else math.abs(rnd.nextLong()) % maxPos
        val cell = CellId.fromPosLevel(pos, level)
        assert(cell.level == level)
        assert(cell.pos == pos)
      }
    }
  }

  test("leaf ids are odd; coarser ids keep a level-dependent sentinel") {
    val (lon, lat) = randLonLat()
    val leaf = CellId.fromPoint(lon, lat)
    assert((leaf.id & 1L) == 1L)
    assert(leaf.level == 30)
    for (l <- 0 to 29) {
      val p = leaf.parent(l)
      assert(p.lsb == (1L << (2 * (30 - l))))
    }
  }

  test("parent contains child, grandchildren, and the leaf") {
    for (_ <- 1 to 200) {
      val (lon, lat) = randLonLat()
      val leaf = CellId.fromPoint(lon, lat)
      for (l <- 0 until 30) {
        val p = leaf.parent(l)
        assert(p.contains(leaf), s"level $l")
        assert(p.contains(leaf.parent(math.min(30, l + 1))))
      }
    }
  }

  test("children partition the parent's id range") {
    for (_ <- 1 to 100) {
      val level = 1 + rnd.nextInt(28)
      val pos   = math.abs(rnd.nextLong()) % (1L << (2 * level))
      val cell  = CellId.fromPosLevel(pos, level)
      val kids  = (0 until 4).map(cell.child)
      assert(kids.length == 4)
      assert(kids.forall(k => k.level == level + 1 && cell.contains(k)))
      // Child ranges are disjoint, ordered, and cover the parent's range.
      val ranges = kids.map(k => (k.rangeMin, k.rangeMax)).sorted
      assert(ranges.head._1 == cell.rangeMin)
      assert(ranges.last._2 == cell.rangeMax)
      ranges.sliding(2).foreach {
        case Seq((_, hi1), (lo2, _)) => assert(lo2 == hi1 + 2) // parent sentinel ids sit between
        case _                       =>
      }
    }
  }

  test("rangeMin/rangeMax bound exactly the descendant leaves") {
    for (_ <- 1 to 100) {
      val level = rnd.nextInt(29) + 1
      val pos   = math.abs(rnd.nextLong()) % (1L << (2 * level))
      val cell  = CellId.fromPosLevel(pos, level)
      // First and last descendant leaves:
      val firstLeafPos = pos << (2 * (30 - level))
      val lastLeafPos  = ((pos + 1) << (2 * (30 - level))) - 1
      val firstLeaf = CellId.fromPosLevel(firstLeafPos, 30)
      val lastLeaf  = CellId.fromPosLevel(lastLeafPos, 30)
      assert(firstLeaf.id == cell.rangeMin)
      assert(lastLeaf.id == cell.rangeMax)
    }
  }

  test("containment matches range containment for random pairs") {
    for (_ <- 1 to 500) {
      val (lon1, lat1) = randLonLat()
      val (lon2, lat2) = randLonLat()
      val l1 = rnd.nextInt(31)
      val l2 = rnd.nextInt(31)
      val a  = CellId.fromPoint(lon1, lat1, l1)
      val b  = CellId.fromPoint(lon2, lat2, l2)
      val rangeBased = b.rangeMin >= a.rangeMin && b.rangeMax <= a.rangeMax
      assert(a.contains(b) == rangeBased)
    }
  }

  test("bounds of a leaf cell contain the generating point") {
    for (_ <- 1 to 300) {
      val (lon, lat) = randLonLat()
      for (level <- Seq(0, 5, 13, 17, 21, 30)) {
        val cell = CellId.fromPoint(lon, lat, level)
        val b    = cell.bounds
        assert(lon >= b.minX - 1e-9 && lon <= b.maxX + 1e-9, s"lon $lon not in $b at $level")
        assert(lat >= b.minY - 1e-9 && lat <= b.maxY + 1e-9, s"lat $lat not in $b at $level")
      }
    }
  }

  test("bounds of children tile the parent's bounds") {
    for (_ <- 1 to 50) {
      val (lon, lat) = randLonLat()
      val cell = CellId.fromPoint(lon, lat, 10)
      val pb   = cell.bounds
      val kids = (0 until 4).map(cell.child(_).bounds)
      assert(math.abs(kids.map(b => b.width * b.height).sum - pb.width * pb.height) < 1e-9)
      kids.foreach { kb =>
        assert(kb.minX >= pb.minX - 1e-9 && kb.maxX <= pb.maxX + 1e-9)
        assert(kb.minY >= pb.minY - 1e-9 && kb.maxY <= pb.maxY + 1e-9)
      }
    }
  }

  test("world cell covers everything") {
    assert(CellId.World.level == 0)
    for (_ <- 1 to 100) {
      val (lon, lat) = randLonLat()
      assert(CellId.World.contains(CellId.fromPoint(lon, lat)))
    }
  }

  test("commonAncestor contains both and is the deepest such cell") {
    for (_ <- 1 to 300) {
      val (lon1, lat1) = randLonLat()
      val (lon2, lat2) = randLonLat()
      val a   = CellId.fromPoint(lon1, lat1, 5 + rnd.nextInt(26))
      val b   = CellId.fromPoint(lon2, lat2, 5 + rnd.nextInt(26))
      val anc = CellId.commonAncestor(a, b)
      assert(anc.contains(a) && anc.contains(b))
      if (anc.level < math.min(a.level, b.level)) {
        // one level deeper must separate them
        val da = a.parent(anc.level + 1)
        val db = b.parent(anc.level + 1)
        assert(da.id != db.id, s"ancestor not deepest: $anc")
      }
    }
  }

  test("commonAncestor of identical cells is the cell itself") {
    val c = CellId.fromPoint(-73.98, 40.75, 17)
    assert(CellId.commonAncestor(c, c).id == c.id)
  }

  test("diagonalMeters shrinks by half per level") {
    val diags = (10 to 20).map(l => CellId.fromPoint(-73.98, 40.75, l).diagonalMeters)
    diags.sliding(2).foreach { case Seq(a, b) =>
      assert(b < a * 0.55 && b > a * 0.45, s"$a -> $b")
    case _ => }
  }

  test("level 17 cell diagonal is a few hundred meters at NYC latitude") {
    val d = CellId.fromPoint(-73.98, 40.75, 17).diagonalMeters
    assert(d > 100 && d < 500, s"diag=$d")
  }

  test("leafKey is monotone in the Hilbert position, not the coordinates") {
    // sanity: leafKey = (pos30 << 1) | 1
    val (lon, lat) = (-73.99, 40.72)
    val key = CellId.leafKey(lon, lat)
    val pos = Hilbert.xy2d(30, CellId.xCoord(lon), CellId.yCoord(lat))
    assert(key == ((pos << 1) | 1L))
  }

  test("leafKey accepts the world's edges") {
    assert(CellId.leafKey(-180, -90) == CellId.fromPoint(-180, -90).id)
    assert(CellId.leafKey(180, 90) == CellId.fromPoint(180, 90).id)
  }

  test("leafKey rejects NaN, infinite and out-of-world coordinates by value") {
    Seq((Double.NaN, 40.0, "lon=NaN"), (-73.0, Double.NaN, "lat=NaN"),
        (Double.PositiveInfinity, 40.0, "lon=Infinity"), (-180.5, 40.0, "lon=-180.5"),
        (-73.0, 90.5, "lat=90.5"), (-73.0, -999.0, "lat=-999.0")).foreach { case (lon, lat, named) =>
      val e = intercept[IllegalArgumentException](CellId.leafKey(lon, lat))
      assert(e.getMessage.contains(named), e.getMessage)
    }
  }

  test("coordinate clamping keeps out-of-range points addressable") {
    assert(CellId.xCoord(-999) == 0L)
    assert(CellId.xCoord(999) == (1L << 30) - 1)
    assert(CellId.yCoord(-999) == 0L)
    assert(CellId.yCoord(999) == (1L << 30) - 1)
  }

  test("blockKeyOf agrees with parent() for leaves") {
    for (_ <- 1 to 200) {
      val (lon, lat) = randLonLat()
      val leaf = CellId.fromPoint(lon, lat)
      for (l <- Seq(5, 13, 17, 21)) {
        assert(repro.core.GeoBlock.blockKeyOf(leaf.id, l) == leaf.parent(l).id)
      }
    }
  }
}
