package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropertyChecks, SparkSpec, SynthData, TestData}
import repro.s2.CellId
import repro.workload.Workloads

/** Generated checks of both tries against plain `Map` models, and of the
  * adapted (V2) SELECT against the basic (V1) one.
  */
class TriePropertySpec extends SparkSpec with PropertyChecks {

  private val root = CellId.fromPoint(-73.9, 40.75, 8)

  /** A cell 1 to 6 levels below `under`; shallow paths make repeats and
    * shared prefixes common.
    */
  private def cellBelow(under: CellId): Gen[CellId] =
    for {
      depth <- Gen.choose(1, 6)
      path  <- Gen.listOfN(depth, Gen.choose(0, 3))
    } yield path.foldLeft(under)(_.child(_))

  /** Mostly cells below the root, some the trie must not track: the root
    * itself and cells below one of its siblings.
    */
  private val anyCell: Gen[CellId] = {
    val sibling = CellId.fromPosLevel(root.pos ^ 1L, root.level)
    Gen.frequency(8 -> cellBelow(root), 1 -> Gen.const(root), 1 -> cellBelow(sibling))
  }

  private def inRange(c: CellId) = c.level > root.level && root.contains(c)

  private def agg(count: Long): AggState = {
    val st = new AggState(2)
    st.count = count
    st
  }

  test("StatsTrie.entries equals a map model of the recorded cells") {
    check(Prop.forAllNoShrink(Gen.listOf(anyCell)) { cells =>
      val t = new StatsTrie(root)
      val accepted = cells.map(t.record)
      val hits = cells.filter(inRange).groupBy(_.id).map { case (id, cs) => id -> cs.length.toLong }
      val expected = hits.map { case (id, h) =>
        (id, h, hits.getOrElse(CellId(id).parent.id, 0L))
      }.toSet
      val got = t.entries.map(e => (e.cell.id, e.hits, e.parentHits))
      accepted == cells.map(inRange) && got.length == got.toSet.size &&
        got.toSet == expected && t.entries.map(_.hits).sum == cells.count(inRange).toLong
    })
  }

  test("AggregateTrie.insertCostBytes equals the measured sizeBytes growth") {
    check(Prop.forAllNoShrink(Gen.listOf(anyCell)) { cells =>
      val t = new AggregateTrie(root, 2)
      cells.distinct.forall { c =>
        val cost   = t.insertCostBytes(c)
        val before = t.sizeBytes
        if (t.insert(c, agg(1))) t.sizeBytes - before == cost
        else cost == Long.MaxValue && t.sizeBytes == before
      } && t.sizeBytes == 8L * t.numNodes + AggState.storedBytes(2) * t.numAggregates
    })
  }

  test("nodeOf and aggOrNull return the last aggregate inserted per cell") {
    check(Prop.forAllNoShrink(Gen.listOf(anyCell), Gen.listOf(anyCell)) { (inserted, others) =>
      val t = new AggregateTrie(root, 2)
      inserted.zipWithIndex.foreach { case (c, i) => t.insert(c, agg(i.toLong)) }
      val last = inserted.zipWithIndex.filter(p => inRange(p._1))
        .map { case (c, i) => c.id -> i.toLong }.toMap
      def cached(c: CellId): Option[Long] = {
        val node = t.nodeOf(c)
        Option(if (node < 0) null else t.aggOrNull(node)).map(_.count)
      }
      // the inserted cells, their ancestors and children, and random others
      val probes = (inserted ++ others).flatMap { c =>
        c +: ((root.level to c.level).map(c.parent(_)) ++ (0 until 4).map(c.child))
      }
      t.numAggregates == last.size && probes.forall { c =>
        val node = t.nodeOf(c)
        cached(c) == last.get(c.id) &&
          (node < 0 || (0 until 4).forall { i =>
            Option(t.childAggOrNull(node, i)).map(_.count) == last.get(c.child(i).id)
          })
      }
    })
  }

  test("V2 equals V1 on random covering-cell sets at a random threshold") {
    val block = TestData.block17
    val raw   = TestData.raw
    val specs = Workloads.SevenAggs
    val cols  = AggSpec.neededCols(specs)
    val top   = StatsTrie.forBlock(block).rootCell.level

    // Cells around data points and anywhere in the NYC box, between the
    // trie root and the block level.
    val cellGen: Gen[CellId] = for {
      level <- Gen.choose(top + 1, block.blockLevel)
      leaf  <- Gen.oneOf(
        Gen.choose(0, raw.size - 1).map(i => CellId(raw.keys(i))),
        for {
          lon <- Gen.choose(SynthData.NycMinLon, SynthData.NycMaxLon)
          lat <- Gen.choose(SynthData.NycMinLat, SynthData.NycMaxLat)
        } yield CellId.fromPoint(lon, lat, CellId.MaxLevel))
    } yield leaf.parent(level)

    // A covering is disjoint: keep a cell only if no coarser kept cell
    // contains it.
    val coveringGen: Gen[IndexedSeq[CellId]] =
      Gen.choose(1, 40).flatMap(Gen.listOfN(_, cellGen)).map { cs =>
        cs.sortBy(c => (c.level, c.id)).foldLeft(Vector.empty[CellId]) { (kept, c) =>
          if (kept.exists(_.contains(c))) kept else kept :+ c
        }.sortBy(_.id)
      }

    // The same covering with some cells replaced by a random subset of
    // their children. Recorded next to the original, parents and children
    // compete for the trie budget, so cells hit a node whose aggregate is
    // missing but some of whose children are cached.
    def refined(cells: IndexedSeq[CellId]): Gen[IndexedSeq[CellId]] =
      Gen.listOfN(cells.length, Gen.listOfN(4, Gen.prob(0.5))).map { masks =>
        cells.zip(masks).flatMap { case (c, mask) =>
          if (c.level < block.blockLevel && mask.contains(true))
            (0 until 4).map(c.child).zip(mask).collect { case (k, true) => k }
          else Seq(c)
        }
      }

    val workloadGen: Gen[List[IndexedSeq[CellId]]] =
      Gen.listOfN(3, coveringGen.flatMap(c => refined(c).map(List(c, _)))).map(_.flatten)

    // Log-uniform from 1e-4 to 1, so tight budgets are drawn as often as
    // ones that cache every candidate.
    val thresholdGen: Gen[Double] = Gen.choose(-4.0, 0.0).map(math.pow(10, _))

    def same(spec: AggSpec, v1: Double, v2: Double): Boolean = spec.func match {
      case AggFunc.Sum | AggFunc.Avg =>
        (v1.isNaN && v2.isNaN) || v1 == v2 || math.abs(v1 - v2) <= 1e-9 * math.abs(v1)
      case _ => v1 == v2
    }

    check(Prop.forAllNoShrink(workloadGen, thresholdGen) {
      (workload, threshold) =>
        val v2 = new AdaptiveGeoBlock(block)
        workload.foreach(v2.selectCells(_, specs))
        v2.buildAggregateTrie(threshold)
        workload.forall { cells =>
          val expected = block.selectCells(cells, cols).extractAll(specs)
          val got      = v2.selectCells(cells, specs)
          specs.indices.forall(k => same(specs(k), expected(k), got(k)))
        }
    }, minSuccessful = 50)
  }
}
