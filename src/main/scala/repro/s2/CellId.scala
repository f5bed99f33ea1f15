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

  def children: Seq[CellId] = {
    require(!isLeaf, "leaf cell has no children")
    (0 until 4).map(i => CellId.fromPosLevel(pos * 4 + i, level + 1))
  }

  def child(i: Int): CellId = {
    require(i >= 0 && i < 4 && !isLeaf)
    CellId.fromPosLevel(pos * 4 + i, level + 1)
  }

  /** Lon/lat rectangle covered by this cell. */
  def bounds: BBox = {
    val (cx, cy) = if (level == 0) (0L, 0L) else Hilbert.d2xy(level, pos)
    val n  = 1L << level
    val w  = (CellId.WorldMaxX - CellId.WorldMinX) / n
    val h  = (CellId.WorldMaxY - CellId.WorldMinY) / n
    val x0 = CellId.WorldMinX + cx * w
    val y0 = CellId.WorldMinY + cy * h
    BBox(x0, y0, x0 + w, y0 + h)
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
    val pos30 = Hilbert.xy2d(MaxLevel, xCoord(lon), yCoord(lat))
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

  /** Deepest cell that is an ancestor of both arguments. */
  def commonAncestor(a: CellId, b: CellId): CellId = {
    val l  = math.min(a.level, b.level)
    val pa = a.parent(l).pos
    val pb = b.parent(l).pos
    if (pa == pb) a.parent(l)
    else {
      // Drop level until positions agree.
      val diff   = pa ^ pb
      val topBit = 63 - java.lang.Long.numberOfLeadingZeros(diff)
      val drop   = topBit / 2 + 1
      val lvl    = math.max(0, l - drop)
      a.parent(lvl)
    }
  }
}
