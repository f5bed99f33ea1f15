package repro.s2

import repro.geo.BBox

/** S2-style hierarchical cell id over a planar lon/lat world.
  *
  * A cell at level L (0 = whole world, [[CellId.MaxLevel]] = finest) is a
  * square of the 2^L x 2^L Hilbert-ordered grid. Its 64-bit id encodes the
  * curve position followed by a single sentinel bit:
  *
  *   id = (pos << (2*(MaxLevel-L) + 1)) | (1 << (2*(MaxLevel-L)))
  *
  * exactly like Google S2 minus the cube-face bits. Consequences (all used
  * heavily by GeoBlocks):
  *   - the level is recoverable from the lowest set bit,
  *   - all ids of a cell's descendants form the contiguous range
  *     [rangeMin, rangeMax] in raw-id order,
  *   - parent/child/containment are O(1) bitwise operations.
  */
final class CellId(val id: Long) extends AnyVal {

  /** Lowest set bit — the sentinel, 1 << 2*(MaxLevel - level). */
  def lsb: Long = id & -id

  def level: Int = CellId.MaxLevel - (java.lang.Long.numberOfTrailingZeros(id) >> 1)

  /** Hilbert-curve position among the 4^level cells of this level. */
  def pos: Long = id >>> (java.lang.Long.numberOfTrailingZeros(id) + 1)

  /** Smallest raw id of any descendant (inclusive). */
  def rangeMin: Long = id - (lsb - 1)

  /** Largest raw id of any descendant (inclusive). */
  def rangeMax: Long = id + (lsb - 1)

  def contains(other: CellId): Boolean =
    other.id >= rangeMin && other.id <= rangeMax

  def isLeaf: Boolean = level == CellId.MaxLevel

  def parent(l: Int): CellId = {
    require(l >= 0 && l <= level, s"invalid parent level $l for level $level")
    CellId.fromPosLevel(pos >>> (2 * (level - l)), l)
  }

  def parent: CellId = parent(level - 1)

  def child(i: Int): CellId = {
    require(i >= 0 && i < 4 && !isLeaf)
    CellId.fromPosLevel(pos * 4 + i, level + 1)
  }

  /** Lon/lat rectangle covered by this cell. */
  def bounds: BBox = {
    val l    = level
    val grid = CellId.posToGrid(l, pos)
    val x0   = CellId.WorldMinX + (grid >>> 32) * CellId.CellW(l)
    val y0   = CellId.WorldMinY + ((grid >>> 2) & 0x3fffffffL) * CellId.CellH(l)
    BBox(x0, y0, x0 + CellId.CellW(l), y0 + CellId.CellH(l))
  }

  /** Approximate ground diagonal of the cell in meters (planar, at the
    * cell's center latitude) — the paper's maximum-error bound.
    */
  def diagonalMeters: Double = {
    val b   = bounds
    val lat = math.toRadians(b.centerY)
    val dx  = b.width * 111320.0 * math.cos(lat)
    val dy  = b.height * 110540.0
    math.sqrt(dx * dx + dy * dy)
  }

  override def toString: String = s"CellId(level=$level, pos=$pos)"
}

object CellId {
  val MaxLevel = 30

  // Planar world extent the grid is defined over.
  val WorldMinX: Double = -180.0
  val WorldMaxX: Double = 180.0
  val WorldMinY: Double = -90.0
  val WorldMaxY: Double = 90.0

  /** The level-0 cell covering the whole world. */
  val World: CellId = fromPosLevel(0L, 0)

  def apply(id: Long): CellId = new CellId(id)

  def fromPosLevel(pos: Long, level: Int): CellId = {
    require(level >= 0 && level <= MaxLevel, s"bad level $level")
    require(pos >= 0 && pos < (1L << (2 * level)) || level == 0 && pos == 0,
      s"bad pos $pos for level $level")
    val shift = 2 * (MaxLevel - level)
    new CellId((pos << (shift + 1)) | (1L << shift))
  }

  private def clampCoord(v: Long): Long =
    math.min((1L << MaxLevel) - 1, math.max(0L, v))

  /** Grid x coordinate (level-30 resolution) of a longitude. */
  def xCoord(lon: Double): Long =
    clampCoord(((lon - WorldMinX) / (WorldMaxX - WorldMinX) * (1L << MaxLevel)).toLong)

  /** Grid y coordinate (level-30 resolution) of a latitude. */
  def yCoord(lat: Double): Long =
    clampCoord(((lat - WorldMinY) / (WorldMaxY - WorldMinY) * (1L << MaxLevel)).toLong)

  /** Cell containing the point at the given level (default: leaf). */
  def fromPoint(lon: Double, lat: Double, level: Int = MaxLevel): CellId = {
    val pos30 = gridToPos(MaxLevel, xCoord(lon), yCoord(lat)) >>> 2
    fromPosLevel(pos30 >>> (2 * (MaxLevel - level)), level)
  }

  /** Raw leaf id for a point — the spatial sort key of the raw data.
    * Unlike [[fromPoint]], which clamps query geometry onto the grid, a
    * data point must lie in the world: NaN or out-of-world coordinates
    * are rejected rather than stored under a border cell.
    */
  def leafKey(lon: Double, lat: Double): Long = {
    require(lon >= WorldMinX && lon <= WorldMaxX && lat >= WorldMinY && lat <= WorldMaxY,
      s"coordinate outside the world [-180, 180] x [-90, 90]: lon=$lon, lat=$lat")
    fromPoint(lon, lat).id
  }

  /** Deepest cell that is an ancestor of both arguments. At the shallower
    * level, each base-4 position digit from the highest differing one down
    * is one level to drop.
    */
  def commonAncestor(a: CellId, b: CellId): CellId = {
    val l    = math.min(a.level, b.level)
    val diff = a.parent(l).pos ^ b.parent(l).pos
    a.parent(l - (64 - java.lang.Long.numberOfLeadingZeros(diff) + 1) / 2)
  }

  /** The curve's child order, in S2's convention (s2geometry.io,
    * `S2CellId`): bit 0 of a cell's orientation swaps x and y, bit 1
    * inverts both. Child k of a cell with orientation `orient` is its
    * quadrant `ij = PosToIJ(orient << 2 | k) = (dx << 1) | dy` and has
    * orientation `orient ^ PosToOrientation(k)`. The level-0 cell has
    * orientation 0. These two tables are the only definition of the curve.
    */
  private[s2] val PosToIJ: Array[Int] = Array(
    0, 1, 3, 2, // orientation 0
    0, 2, 3, 1, // swap
    3, 2, 0, 1, // invert
    3, 1, 0, 2, // swap and invert
  )
  private[s2] val PosToOrientation: Array[Int] = Array(1, 0, 0, 3)

  /** Inverse of [[PosToIJ]] per orientation: `IJToPos(orient << 2 | ij) = k`. */
  private val IJToPos: Array[Int] = {
    val t = new Array[Int](16)
    for (o <- 0 until 4; k <- 0 until 4) t(o << 2 | PosToIJ(o << 2 | k)) = k
    t
  }

  /** Curve position of the cell at grid coordinates (x, y) of `level`,
    * and that cell's orientation, packed as `pos << 2 | orient`: one child
    * step per level, from the level-0 cell down.
    */
  private[s2] def gridToPos(level: Int, x: Long, y: Long): Long = {
    var pos    = 0L
    var orient = 0
    var l      = level - 1
    while (l >= 0) {
      val k = IJToPos(orient << 2 | ((x >>> l).toInt & 1) << 1 | ((y >>> l).toInt & 1))
      pos = pos << 2 | k
      orient ^= PosToOrientation(k)
      l -= 1
    }
    pos << 2 | orient
  }

  /** Grid coordinates and orientation of the cell at `pos` of `level`,
    * packed as `x << 32 | y << 2 | orient`: the inverse of [[gridToPos]],
    * one child step per position digit, from the top.
    */
  private[s2] def posToGrid(level: Int, pos: Long): Long = {
    var x, y, orient = 0
    var l = 1
    while (l <= level) {
      val k  = ((pos >>> (2 * (level - l))) & 3L).toInt
      val ij = PosToIJ(orient << 2 | k)
      x = x << 1 | ij >> 1
      y = y << 1 | ij & 1
      orient ^= PosToOrientation(k)
      l += 1
    }
    x.toLong << 32 | y.toLong << 2 | orient
  }

  /** Cell width and height in degrees per level. A level-L cell at grid
    * (x, y) spans `WorldMinX + x * CellW(L)` to that plus `CellW(L)`, and
    * likewise in y; [[CellId.bounds]] and the covering walk both use this.
    */
  private[s2] val CellW: Array[Double] =
    Array.tabulate(MaxLevel + 1)(l => (WorldMaxX - WorldMinX) / (1L << l))
  private[s2] val CellH: Array[Double] =
    Array.tabulate(MaxLevel + 1)(l => (WorldMaxY - WorldMinY) / (1L << l))
}
