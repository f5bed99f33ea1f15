package repro.s2

import org.scalacheck.{Gen, Prop}
import repro.{PropertyChecks, SparkSpec}
import scala.util.Random

/** The curve that runs: [[CellId]]'s `gridToPos` and `posToGrid`, held to
  * the curve's defining properties and to the rotation algorithm of
  * [[Hilbert]].
  */
class HilbertSpec extends SparkSpec with PropertyChecks {

  private def pos(level: Int, x: Long, y: Long): Long = CellId.gridToPos(level, x, y) >>> 2

  private def grid(level: Int, d: Long): (Long, Long) = {
    val g = CellId.posToGrid(level, d)
    (g >>> 32, (g >>> 2) & 0x3fffffffL)
  }

  test("grid/position roundtrip at small orders exhaustively") {
    for (n <- 1 to 5; x <- 0L until (1L << n); y <- 0L until (1L << n)) {
      val d = pos(n, x, y)
      assert(grid(n, d) == ((x, y)), s"n=$n x=$x y=$y d=$d")
    }
  }

  test("order-1 curve visits the canonical quadrant order") {
    val order = (0L until 4L).map(grid(1, _))
    assert(order == Seq((0L, 0L), (0L, 1L), (1L, 1L), (1L, 0L)))
  }

  test("positions are a bijection at order 3") {
    val n    = 3
    val seen = (for (x <- 0L until 8L; y <- 0L until 8L) yield pos(n, x, y)).toSet
    assert(seen == (0L until 64L).toSet)
  }

  test("consecutive positions are grid neighbours (curve continuity)") {
    val n = 6
    var prev = grid(n, 0)
    for (d <- 1L until (1L << (2 * n))) {
      val cur  = grid(n, d)
      val dist = math.abs(cur._1 - prev._1) + math.abs(cur._2 - prev._2)
      assert(dist == 1, s"jump at d=$d: $prev -> $cur")
      prev = cur
    }
  }

  test("roundtrip at order 30 on random coordinates") {
    val rnd = new Random(1)
    for (_ <- 1 to 2000) {
      val x = rnd.nextLong() & ((1L << 30) - 1)
      val y = rnd.nextLong() & ((1L << 30) - 1)
      val d = pos(30, x, y)
      assert(d >= 0 && d < (1L << 60))
      assert(grid(30, d) == ((x, y)))
    }
  }

  test("prefix property: truncating the position selects the ancestor cell") {
    val rnd = new Random(2)
    for (_ <- 1 to 500) {
      val x = rnd.nextLong() & ((1L << 30) - 1)
      val y = rnd.nextLong() & ((1L << 30) - 1)
      val d30 = pos(30, x, y)
      for (l <- Seq(1, 5, 13, 17, 21, 29)) {
        val expected = pos(l, x >>> (30 - l), y >>> (30 - l))
        assert(d30 >>> (2 * (30 - l)) == expected, s"level $l")
      }
    }
  }

  test("spatial locality: nearby points share long position prefixes on average") {
    val rnd = new Random(3)
    val pairs = (1 to 200).map { _ =>
      val x = rnd.nextLong() & ((1L << 30) - 2)
      val y = rnd.nextLong() & ((1L << 30) - 2)
      val dNear = math.abs(pos(30, x, y) - pos(30, x + 1, y))
      val far   = (x + (1L << 29)) & ((1L << 30) - 1)
      val dFar  = math.abs(pos(30, x, y) - pos(30, far, y))
      (dNear.toDouble, dFar.toDouble)
    }
    val avgNear = pairs.map(_._1).sum / pairs.length
    val avgFar  = pairs.map(_._2).sum / pairs.length
    assert(avgNear < avgFar / 1000, s"near=$avgNear far=$avgFar")
  }

  test("the table-driven curve equals the rotation reference in both directions at levels 0-30") {
    val cell = for {
      level <- Gen.oneOf(Gen.choose(0, 30), Gen.oneOf(0, 1, 30))
      x     <- Gen.choose(0L, (1L << level) - 1)
      y     <- Gen.choose(0L, (1L << level) - 1)
    } yield (level, x, y)
    check(Prop.forAllNoShrink(cell) { case (level, x, y) =>
      val d = Hilbert.xy2d(level, x, y)
      Prop(pos(level, x, y) == d && grid(level, d) == Hilbert.d2xy(level, d)) :|
        s"level $level, x $x, y $y"
    }, minSuccessful = 2000)
  }

  test("fromPoint equals the reference at the world's corners and edges and on clamped points") {
    val lons = Seq(-1000.0, -180.5, -180.0, -179.99, 0.0, 179.99, 180.0, 180.5, 1000.0)
    val lats = Seq(-1000.0, -90.5, -90.0, -89.99, 0.0, 89.99, 90.0, 90.5, 1000.0)
    for (lon <- lons; lat <- lats; level <- Seq(0, 1, 17, 30)) {
      val ref = Hilbert.xy2d(30, CellId.xCoord(lon), CellId.yCoord(lat)) >>> (2 * (30 - level))
      assert(CellId.fromPoint(lon, lat, level).pos == ref, s"lon $lon, lat $lat, level $level")
    }
  }
}
