package repro.s2

/** Order-n Hilbert curve between 2-D grid coordinates and 1-D positions,
  * by the textbook rotation algorithm: the reference that the tests hold
  * [[CellId]]'s table-driven curve to.
  *
  * Coordinates are unsigned `n`-bit values; positions are unsigned
  * `2n`-bit values. With n = 30 positions fit comfortably in a Long.
  */
object Hilbert {

  /** Maps grid coordinates (x, y), each in [0, 2^n), to the curve position. */
  def xy2d(n: Int, xIn: Long, yIn: Long): Long = {
    var x = xIn
    var y = yIn
    var d = 0L
    var s = 1L << (n - 1)
    while (s > 0) {
      val rx = if ((x & s) > 0) 1L else 0L
      val ry = if ((y & s) > 0) 1L else 0L
      d += s * s * ((3L * rx) ^ ry)
      // Rotate the quadrant so the sub-curve is in canonical orientation.
      if (ry == 0) {
        if (rx == 1) {
          x = s - 1 - x
          y = s - 1 - y
        }
        val t = x; x = y; y = t
      }
      s >>= 1
    }
    d
  }

  /** Maps a curve position d in [0, 4^n) back to grid coordinates. */
  def d2xy(n: Int, dIn: Long): (Long, Long) = {
    var x = 0L
    var y = 0L
    var t = dIn
    var s = 1L
    while (s < (1L << n)) {
      val rx = 1L & (t / 2)
      val ry = 1L & (t ^ rx)
      if (ry == 0) {
        if (rx == 1) {
          x = s - 1 - x
          y = s - 1 - y
        }
        val tmp = x; x = y; y = tmp
      }
      x += s * rx
      y += s * ry
      t /= 4
      s <<= 1
    }
    (x, y)
  }
}
