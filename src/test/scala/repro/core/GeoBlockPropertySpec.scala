package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks
import repro.s2.CellId

/** Generated checks of the GeoBlock header build against a group-by model,
  * and of its per-cell read against a brute-force scan of the raw rows.
  */
class GeoBlockPropertySpec extends AnyFunSuite with PropertyChecks {

  private val base = CellId.fromPoint(-73.9, 40.75, 8)

  private def leafIn(c: CellId): Gen[Long] =
    Gen.choose(0L, (c.rangeMax - c.rangeMin) / 2).map(c.rangeMin + 2 * _)

  /** Points fall into a few clusters of random size, so cells at every
    * level hold several rows and some rows share a leaf key.
    */
  private val rawGen: Gen[RawColumns] = for {
    nClusters <- Gen.choose(1, 4)
    clusters  <- Gen.listOfN(nClusters,
      for (level <- Gen.choose(8, 30); leaf <- leafIn(base)) yield CellId(leaf).parent(level))
    n         <- Gen.choose(0, 200)
    keys      <- Gen.listOfN(n, Gen.oneOf(clusters).flatMap(leafIn))
    nCols     <- Gen.choose(1, 3)
    values    <- Gen.listOfN(nCols, Gen.listOfN(n, Gen.oneOf(
      Gen.choose(0.0, 1e6), Gen.choose(0, 9).map(_.toDouble))))
  } yield new RawColumns(keys.sorted.toArray, new Array[Double](n), new Array[Double](n),
    Array.tabulate(nCols)(c => s"c$c"), values.map(_.toArray).toArray)

  /** Row indices per block-level cell, in cell order, rows in row order. */
  private def groups(raw: RawColumns, level: Int): Seq[(Long, Seq[Int])] =
    raw.keys.indices.groupBy(i => CellId(raw.keys(i)).parent(level).id)
      .toSeq.sortBy(_._1).map { case (k, rows) => k -> rows.sorted }

  test("buildFromSorted equals a group-by model at every level") {
    check(Prop.forAllNoShrink(rawGen, Gen.choose(0, 30)) { (raw, level) =>
      val b  = GeoBlock.buildFromSorted(raw, level)
      val gs = groups(raw, level)
      val keysOk = b.keys.toSeq == gs.map(_._1) &&
        b.keys.indices.drop(1).forall(i => b.keys(i - 1) < b.keys(i))
      val countsOk = b.counts.toSeq == gs.map(_._2.length.toLong) &&
        b.offsets.toSeq == gs.map(_._2.head.toLong)
      val colsOk = (0 until raw.nCols).forall { c =>
        gs.indices.forall { j =>
          val vs  = gs(j)._2.map(raw.values(c)(_))
          var sum = 0.0
          vs.foreach(sum += _)
          b.mins(c)(j) == vs.min && b.maxs(c)(j) == vs.max &&
            java.lang.Double.doubleToRawLongBits(b.sums(c)(j)) ==
              java.lang.Double.doubleToRawLongBits(sum)
        }
      }
      b.numCells == gs.length && keysOk && countsOk && colsOk && b.totalTuples == raw.size
    }, minSuccessful = 300)
  }

  test("selectCells equals a brute-force scan for random cells and column subsets") {
    // Cells around data rows and anywhere in the base cell, at most as
    // deep as the block, kept only if no coarser kept cell contains them.
    def cellsGen(raw: RawColumns, level: Int): Gen[Seq[CellId]] = {
      val leaf =
        if (raw.size == 0) leafIn(base)
        else Gen.oneOf(leafIn(base), Gen.choose(0, raw.size - 1).map(raw.keys(_)))
      val cell = for (l <- Gen.choose(0, level); k <- leaf) yield CellId(k).parent(l)
      Gen.choose(0, 12).flatMap(Gen.listOfN(_, cell)).map { cs =>
        cs.sortBy(c => (c.level, c.id)).foldLeft(Vector.empty[CellId]) { (kept, c) =>
          if (kept.exists(_.contains(c))) kept else kept :+ c
        }
      }
    }
    val gen = for {
      raw   <- rawGen
      level <- Gen.choose(0, 30)
      cells <- cellsGen(raw, level)
      cols  <- Gen.someOf(0 until raw.nCols)
    } yield (raw, level, cells, cols.sorted.toArray)

    check(Prop.forAllNoShrink(gen) { case (raw, level, cells, cols) =>
      val got  = GeoBlock.buildFromSorted(raw, level).selectCells(cells, cols)
      val rows = raw.keys.indices.filter { i =>
        cells.exists(c => raw.keys(i) >= c.rangeMin && raw.keys(i) <= c.rangeMax)
      }
      val want = new AggState(raw.nCols)
      rows.foreach(want.addTuple(raw.values, _, cols))
      def close(a: Double, b: Double) = a == b || math.abs(a - b) <= 1e-9 * math.abs(b)
      got.count == rows.length && (0 until raw.nCols).forall { c =>
        got.mins(c) == want.mins(c) && got.maxs(c) == want.maxs(c) &&
          close(got.sums(c), want.sums(c))
      }
    }, minSuccessful = 300)
  }
}
