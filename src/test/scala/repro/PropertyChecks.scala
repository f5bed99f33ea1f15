package repro

import org.scalacheck.{Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions

/** Runs scalacheck properties inside a suite, from a fixed seed so
  * failures reproduce.
  */
trait PropertyChecks extends Assertions {
  def check(p: Prop, minSuccessful: Int = 100): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(minSuccessful)
      .withInitialSeed(Seed(20210323L))
    val res = Test.check(params, p)
    assert(res.passed, Pretty.prettyTestRes(res)(Pretty.defaultParams))
  }
}
