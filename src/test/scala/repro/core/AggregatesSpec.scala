package repro.core

import repro.SparkSpec
import scala.util.Random

class AggregatesSpec extends SparkSpec {

  private def mkValues(rows: Int, cols: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    Array.fill(cols)(Array.fill(rows)(rnd.nextDouble() * 100 - 50))
  }

  test("addTuple accumulates count, min, max, sum") {
    val vals = Array(Array(1.0, 2.0, 3.0), Array(-1.0, 5.0, 0.0))
    val st   = new AggState(2)
    val all  = AggState.allCols(2)
    (0 until 3).foreach(st.addTuple(vals, _, all))
    assert(st.count == 3)
    assert(st.mins.toSeq == Seq(1.0, -1.0))
    assert(st.maxs.toSeq == Seq(3.0, 5.0))
    assert(st.sums.toSeq == Seq(6.0, 4.0))
  }

  test("column subsets only touch the requested columns") {
    val vals = Array(Array(1.0, 2.0), Array(10.0, 20.0))
    val st   = new AggState(2)
    (0 until 2).foreach(st.addTuple(vals, _, Array(1)))
    assert(st.count == 2)
    assert(st.mins(0).isPosInfinity && st.maxs(0).isNegInfinity && st.sums(0) == 0.0)
    assert(st.mins(1) == 10.0 && st.maxs(1) == 20.0 && st.sums(1) == 30.0)
  }

  test("mergeFrom equals aggregating the union") {
    val rnd  = new Random(1)
    for (_ <- 1 to 20) {
      val vals = mkValues(100, 3, rnd.nextLong())
      val all  = AggState.allCols(3)
      val a    = new AggState(3)
      val b    = new AggState(3)
      val u    = new AggState(3)
      (0 until 50).foreach { i => a.addTuple(vals, i, all); u.addTuple(vals, i, all) }
      (50 until 100).foreach { i => b.addTuple(vals, i, all); u.addTuple(vals, i, all) }
      a.mergeFrom(b, all)
      assert(a.count == u.count)
      assert(a.mins.toSeq == u.mins.toSeq)
      assert(a.maxs.toSeq == u.maxs.toSeq)
      (0 until 3).foreach(c => assert(math.abs(a.sums(c) - u.sums(c)) < 1e-9))
    }
  }

  test("merge is commutative and associative on count/min/max") {
    val vals = mkValues(60, 2, 2)
    val all  = AggState.allCols(2)
    def stateOf(r: Range): AggState = {
      val s = new AggState(2); r.foreach(s.addTuple(vals, _, all)); s
    }
    val ab = stateOf(0 until 20); ab.mergeFrom(stateOf(20 until 40), all)
    val ba = stateOf(20 until 40); ba.mergeFrom(stateOf(0 until 20), all)
    assert(ab.count == ba.count && ab.mins.toSeq == ba.mins.toSeq && ab.maxs.toSeq == ba.maxs.toSeq)
  }

  test("merging an empty state is a no-op") {
    val vals = mkValues(10, 2, 3)
    val all  = AggState.allCols(2)
    val a    = new AggState(2)
    (0 until 10).foreach(a.addTuple(vals, _, all))
    val before = (a.count, a.mins.toSeq, a.maxs.toSeq, a.sums.toSeq)
    a.mergeFrom(new AggState(2), all)
    assert((a.count, a.mins.toSeq, a.maxs.toSeq, a.sums.toSeq) == before)
  }

  test("extract evaluates every aggregate function") {
    val vals = Array(Array(2.0, 4.0, 6.0))
    val st   = new AggState(1)
    (0 until 3).foreach(st.addTuple(vals, _, Array(0)))
    assert(st.extract(AggSpec(AggFunc.Count)) == 3.0)
    assert(st.extract(AggSpec(AggFunc.Min, 0)) == 2.0)
    assert(st.extract(AggSpec(AggFunc.Max, 0)) == 6.0)
    assert(st.extract(AggSpec(AggFunc.Sum, 0)) == 12.0)
    assert(st.extract(AggSpec(AggFunc.Avg, 0)) == 4.0)
  }

  test("avg of an empty state is NaN, count is 0") {
    val st = new AggState(1)
    assert(st.count == 0)
    assert(st.extract(AggSpec(AggFunc.Count)) == 0.0)
    assert(st.extract(AggSpec(AggFunc.Avg, 0)).isNaN)
  }

  test("neededCols deduplicates and drops COUNT") {
    val specs = Seq(AggSpec(AggFunc.Count), AggSpec(AggFunc.Min, 2),
      AggSpec(AggFunc.Max, 2), AggSpec(AggFunc.Sum, 0))
    assert(AggSpec.neededCols(specs).toSeq == Seq(0, 2))
    assert(AggSpec.neededCols(Seq(AggSpec(AggFunc.Count))).isEmpty)
  }

  test("storedBytes formula") {
    assert(AggState.storedBytes(3) == 8 + 72)
    assert(AggState.storedBytes(0) == 8)
  }
}
