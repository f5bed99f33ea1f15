package repro.core

import repro.{SparkSpec, TestData}
import repro.s2.CellId
import scala.util.Random

class StatsTrieSpec extends SparkSpec {

  private def cellNear(lon: Double, lat: Double, level: Int) =
    CellId.fromPoint(lon, lat, level)

  private val root = cellNear(-73.9, 40.75, 8)

  /** Hits of one cell as `entries` reports them (0 if absent). */
  private def hitsOf(t: StatsTrie, c: CellId): Long =
    t.entries.find(_.cell.id == c.id).map(_.hits).getOrElse(0L)

  test("record and entries roundtrip") {
    val t = new StatsTrie(root)
    val c = cellNear(-73.9, 40.75, 14)
    assert(hitsOf(t, c) == 0)
    assert(t.record(c))
    assert(hitsOf(t, c) == 1)
    t.record(c)
    assert(hitsOf(t, c) == 2)
    assert(t.entries.map(_.hits).sum == 2)
  }

  test("cells outside the pruned root are ignored") {
    val t = new StatsTrie(root)
    val outside = cellNear(10.0, 10.0, 14)
    assert(!t.record(outside))
    assert(hitsOf(t, outside) == 0)
    assert(t.entries.map(_.hits).sum == 0)
  }

  test("cells at or above the root level are ignored") {
    val t = new StatsTrie(root)
    assert(!t.record(root))
    assert(!t.record(root.parent(4)))
  }

  test("sibling cells do not interfere") {
    val t      = new StatsTrie(root)
    val parent = cellNear(-73.9, 40.75, 13)
    val kids   = (0 until 4).map(parent.child)
    t.record(kids(0)); t.record(kids(0)); t.record(kids(2))
    assert(hitsOf(t, kids(0)) == 2)
    assert(hitsOf(t, kids(1)) == 0)
    assert(hitsOf(t, kids(2)) == 1)
    assert(hitsOf(t, kids(3)) == 0)
  }

  test("entries lists every recorded cell with its own hits") {
    val t   = new StatsTrie(root)
    val rnd = new Random(4)
    val cells = (1 to 30).map { _ =>
      val lon = -73.99 + rnd.nextDouble() * 0.1
      val lat = 40.70 + rnd.nextDouble() * 0.1
      cellNear(lon, lat, 10 + rnd.nextInt(8))
    }.filter(c => root.contains(c) && c.level > root.level)
    val expected = cells.groupBy(_.id).map { case (id, cs) => id -> cs.length.toLong }
    cells.foreach(t.record)
    val got = t.entries.map(e => e.cell.id -> e.hits).toMap
    assert(got == expected)
  }

  test("parentHits feeds the score") {
    val t      = new StatsTrie(root)
    val parent = cellNear(-73.9, 40.75, 13)
    val child  = parent.child(1)
    t.record(parent); t.record(parent); t.record(parent)
    t.record(child)
    val entries = t.entries
    val childEntry  = entries.find(_.cell.id == child.id).get
    val parentEntry = entries.find(_.cell.id == parent.id).get
    assert(childEntry.hits == 1 && childEntry.parentHits == 3 && childEntry.score == 4)
    assert(parentEntry.hits == 3)
  }

  test("candidates sorted by score desc, level asc, id asc") {
    val t  = new StatsTrie(root)
    val c1 = cellNear(-73.95, 40.73, 12)
    val c2 = cellNear(-73.88, 40.78, 14)
    val c3 = cellNear(-73.92, 40.70, 14)
    (1 to 5).foreach(_ => t.record(c1))
    (1 to 5).foreach(_ => t.record(c2))
    (1 to 2).foreach(_ => t.record(c3))
    val cands = t.candidates.filter(e => Set(c1.id, c2.id, c3.id).contains(e.cell.id))
    assert(cands.head.cell.id == c1.id) // same score as c2 but coarser level
    assert(cands(1).cell.id == c2.id)
    assert(cands(2).cell.id == c3.id)
  }

  test("forBlock prunes to a cell covering the whole block") {
    val t = StatsTrie.forBlock(TestData.block17)
    val b = TestData.block17
    assert(t.rootCell.rangeMin <= b.keyMin && t.rootCell.rangeMax >= b.keyMax)
    // and recording a typical covering cell works
    val c = cellNear(-73.97, 40.75, 15)
    assert(t.record(c))
  }
}
