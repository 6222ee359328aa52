"""World model: bounded arena, ground surface, box obstacles, occupancy grids.

The world is deliberately simple: an axis-aligned bounding volume, a ground
surface that is either flat or a bilinearly interpolated heightmap, and a set
of axis-aligned box obstacles. Collision queries treat the robot as a sphere
whose radius is the requested clearance; the clearance inflates obstacles
only, while the ground and the arena bounds are tested at the query point
itself (a ground vehicle sits exactly on the surface, so inflating the ground
would reject every legal pose). Swept segment checks are exact: a segment is
tested where it comes closest to the bounds, the ground and each box, and a
segment with both ends on the ground must also stay on it. Their two phases
share one hull test on each segment's box [min(a, b), max(a, b)]: the broad
phase clears what it finds free, and the narrow phase tests the ground over
the segments below its highest point and the boxes over the (segment, box)
pairs within the clearance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costmodel import json_finite, load_config_file
from .errors import ConfigError

# Footprint inflation: half the 0.70 m vehicle length.
DEFAULT_INFLATION = 0.35
# Vertical band a driving robot sweeps above local ground.
DEFAULT_HEIGHT_BAND = (0.05, 0.60)
DEFAULT_GRID_RESOLUTION = 0.1
# Largest |z - ground| of a point on the ground, as segments_hit tests it.
GROUND_TOL = 1e-6


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box given by its two extreme corners, in meters."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]
    name: str = ""

    def __post_init__(self):
        if len(self.min_corner) != 3 or len(self.max_corner) != 3:
            raise ConfigError("box corners must be 3-vectors")
        lo = tuple(float(v) for v in self.min_corner)
        hi = tuple(float(v) for v in self.max_corner)
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        for axis in range(3):
            if not lo[axis] < hi[axis]:
                raise ConfigError(
                    f"box '{self.name}' degenerate on axis {axis}: "
                    f"{lo[axis]} >= {hi[axis]}"
                )

    def overlaps(self, other: "Aabb") -> bool:
        """Closed-interval overlap test on all three axes."""
        for axis in range(3):
            if self.min_corner[axis] > other.max_corner[axis]:
                return False
            if self.max_corner[axis] < other.min_corner[axis]:
                return False
        return True


class Heightmap:
    """Row-major grid of ground elevations sampled on a square lattice.

    Sample (i, j) sits at world position
    (origin_x + j * resolution, origin_y + i * resolution). Queries between
    samples are bilinearly interpolated; queries beyond the lattice clamp to
    the edge values.
    """

    def __init__(self, origin: tuple[float, float], resolution: float, data):
        self.origin = (float(origin[0]), float(origin[1]))
        self.resolution = float(resolution)
        if not all(map(math.isfinite, (*self.origin, self.resolution))):
            raise ConfigError("heightmap origin and resolution must be finite")
        if self.resolution <= 0.0:
            raise ConfigError("heightmap resolution must be positive")
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ConfigError("heightmap data must be a non-empty 2-D grid")
        if not np.isfinite(arr).all():
            raise ConfigError("heightmap data must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def elevations(self, x, y) -> np.ndarray:
        """Vectorized bilinear interpolation with edge clamping; nan where
        x or y is nan."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = (x - self.origin[0]) / self.resolution
        v = (y - self.origin[1]) / self.resolution
        # Clamp in float before the integer cast, so no nan, inf or huge
        # coordinate reaches it; fmax maps nan to the first cell.
        j0 = np.fmin(np.fmax(np.floor(u), 0.0), max(self.cols - 2, 0)).astype(int)
        i0 = np.fmin(np.fmax(np.floor(v), 0.0), max(self.rows - 2, 0)).astype(int)
        j1 = np.minimum(j0 + 1, self.cols - 1)
        i1 = np.minimum(i0 + 1, self.rows - 1)
        fx = np.clip(u - j0, 0.0, 1.0)
        fy = np.clip(v - i0, 0.0, 1.0)
        z00 = self.data[i0, j0]
        z01 = self.data[i0, j1]
        z10 = self.data[i1, j0]
        z11 = self.data[i1, j1]
        top = z00 * (1.0 - fx) + z01 * fx
        bot = z10 * (1.0 - fx) + z11 * fx
        return top * (1.0 - fy) + bot * fy


class Environment:
    """Static world: bounds, ground surface, and axis-aligned obstacles."""

    def __init__(
        self,
        bounds: Aabb,
        obstacles=(),
        ground_const: float | None = 0.0,
        heightmap: Heightmap | None = None,
    ):
        if (ground_const is None) == (heightmap is None):
            raise ConfigError("exactly one of ground_const / heightmap required")
        self.bounds = bounds
        self.obstacles: tuple[Aabb, ...] = tuple(obstacles)
        self.ground_const = None if ground_const is None else float(ground_const)
        self.heightmap = heightmap
        self._validate()
        self._bmin = np.array(bounds.min_corner)
        self._bmax = np.array(bounds.max_corner)
        # The obstacles' corners as (3, obstacles, 1) arrays: x, y and z rows.
        corners = np.array([(o.min_corner, o.max_corner) for o in self.obstacles])
        corners = corners.reshape(-1, 2, 3).transpose(1, 2, 0)[..., None]
        self._box_lo, self._box_hi = np.ascontiguousarray(corners)
        # No point at or above this height is below the ground (see _hull).
        if heightmap is None:
            self._floor_top = self.ground_const
        else:
            data = heightmap.data
            self._floor_top = float(data.max()) + 1e-9 * max(1.0, float(np.abs(data).max()))

    def _validate(self):
        lo, hi = self.bounds.min_corner, self.bounds.max_corner
        # Every pair of in-bounds points then has a finite squared distance,
        # in the pair search of the roadmap build and in distances.
        dx, dy, dz = (h - l for l, h in zip(lo, hi))
        if not math.isfinite(dx * dx + dy * dy + dz * dz):
            raise ConfigError("bounds too large: the squared diagonal overflows")
        if self.ground_const is not None:
            if not (lo[2] <= self.ground_const <= hi[2]):
                raise ConfigError(
                    f"ground level {self.ground_const} outside bounds z range"
                )
        else:
            zmin = float(self.heightmap.data.min())
            zmax = float(self.heightmap.data.max())
            if zmin < lo[2] or zmax > hi[2]:
                raise ConfigError("heightmap elevations outside bounds z range")
        for obs in self.obstacles:
            if not obs.overlaps(self.bounds):
                raise ConfigError(f"obstacle '{obs.name}' lies outside bounds")

    # -- ground -----------------------------------------------------------

    def ground_height(self, x: float, y: float) -> float:
        """Ground elevation at (x, y). Raises ValueError outside the bounds
        footprint."""
        lo, hi = self.bounds.min_corner, self.bounds.max_corner
        if not (lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]):
            raise ValueError(f"({x}, {y}) outside bounds footprint")
        if self.ground_const is not None:
            return self.ground_const
        return float(self.heightmap.elevations(x, y))

    def snap_to_ground(self, point, label: str) -> tuple[float, float, float]:
        """(x, y, ground height) for a point's x and y. Raises ConfigError
        naming `label` when the point is outside the bounds footprint."""
        x, y = float(point[0]), float(point[1])
        try:
            return (x, y, self.ground_height(x, y))
        except ValueError:
            raise ConfigError(f"{label} outside bounds footprint") from None

    def ground_heights(self, x, y) -> np.ndarray:
        """Vectorized ground elevation; callers guarantee in-bounds points."""
        x = np.asarray(x, dtype=float)
        if self.ground_const is not None:
            return np.full(x.shape, self.ground_const)
        return self.heightmap.elevations(x, np.asarray(y, dtype=float))

    # -- collision --------------------------------------------------------

    def points_in_collision(self, pts: np.ndarray, clearance: float) -> np.ndarray:
        """Vectorized collision test for an (N, 3) array of points.

        A point collides when the clearance sphere around it touches an
        obstacle (closed test: distance == clearance collides), when the
        point itself is below the local ground surface, or when the point
        leaves the arena bounds (a nan coordinate is outside them). The
        points are tested as x, y and z rows of one (3, N) array, against
        as many obstacles per pass as keep the pass's point-box pairs within
        BOX_BLOCK: one point meets every obstacle in one pass, and no
        temporary grows with the obstacle count.
        """
        x, y, z = c = np.ascontiguousarray(_rows(pts).T)
        inside = (c >= self._bmin[:, None]) & (c <= self._bmax[:, None])
        hit = ~(inside[0] & inside[1] & inside[2])
        hit |= z < self.ground_heights(x, y)
        c = c[:, None, :]
        block = max(1, BOX_BLOCK // max(1, len(x)))
        for k in range(0, len(self.obstacles), block):
            lo, hi = self._box_lo[:, k : k + block], self._box_hi[:, k : k + block]
            # Per-axis gap to each box, squared, summed in x, y, z order.
            gap = np.maximum(np.maximum(lo - c, c - hi), 0.0)
            gap *= gap
            gx, gy, gz = gap
            hit |= (gx + gy + gz <= clearance * clearance).any(axis=0)
        return hit

    def point_in_collision(self, p, clearance: float) -> bool:
        """Scalar form of points_in_collision, in plain Python with its
        float expressions: the bounds test, z below the ground (from
        heightmap.elevations on a heightmap), then per box
        max(max(lo - c, c - hi), 0)**2 summed x + y + z against
        clearance**2. Total over all of R^3; a nan coordinate lies outside
        the bounds."""
        x, y, z = map(float, p)
        lo, hi = self.bounds.min_corner, self.bounds.max_corner
        if not (lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1] and lo[2] <= z <= hi[2]):
            return True
        if self.heightmap is None:
            ground = self.ground_const
        else:
            ground = float(self.heightmap.elevations(x, y))
        if z < ground:
            return True
        reach = clearance * clearance
        for box in self.obstacles:
            (lx, ly, lz), (hx, hy, hz) = box.min_corner, box.max_corner
            gx = max(max(lx - x, x - hx), 0.0)
            gy = max(max(ly - y, y - hy), 0.0)
            gz = max(max(lz - z, z - hz), 0.0)
            if gx * gx + gy * gy + gz * gz <= reach:
                return True
        return False

    def segments_undecided(self, a, b, clearance: float) -> np.ndarray:
        """Broad phase of the swept test: False for each segment a[k]-b[k]
        that it clears, True for the rest.

        A segment is cleared when _hull finds its box [min(a, b), max(a, b)]
        inside the bounds, at or above the highest ground and near no
        obstacle. Every point that segments_hit tests lies in that box, and
        segments_hit tests each part of the world only where _hull sends it,
        so the broad phase clears no segment that the narrow phase would
        reject.
        """
        a, b = (np.ascontiguousarray(_rows(c).T) for c in (a, b))
        undecided, low, near = self._hull(a, b, clearance)
        undecided |= low
        for seg in near:
            undecided[seg] = True
        return undecided

    def segments_hit(self, a, b, clearance: float) -> np.ndarray:
        """Exact swept test, the one verdict on a roadmap edge: True for each
        segment a[k]-b[k] that collides where it comes closest to some part
        of the world. _hull decides the bounds and a flat ground at the ends,
        both convex, and gives each other part its own work list: on a
        heightmap, _ground_range over the segments below the highest ground,
        where a segment with both ends within GROUND_TOL of the ground must
        also stay so; for the obstacles, each (segment, box) pair within
        clearance, tested at its _box_params vertices against that box
        alone. segments_undecided only saves work.

        The ends are put in lexicographic order, so that b-a gets a-b's
        verdict bit for bit, and taken as x, y and z rows, with d = b - a.
        The ground is tested in passes of at most BOX_BLOCK heightmap
        parameters, the boxes in passes of BOX_BLOCK pairs; pass cuts change
        no verdict. Non-finite ends, which lie outside the bounds, make nan
        parameters."""
        a, b = _rows(a), _rows(b)
        eq, lt = a == b, b < a
        swap = (lt[:, 0] | eq[:, 0] & (lt[:, 1] | eq[:, 1] & lt[:, 2]))[:, None]
        a, b = (np.ascontiguousarray(c.T) for c in (np.where(swap, b, a), np.where(swap, a, b)))
        with np.errstate(all="ignore"):
            d = b - a
            hit, low, near = self._hull(a, b, clearance)
            if self.heightmap is None:
                hit |= low
            else:  # 2 parameters a lattice line crossed, 5 more
                hm, low = self.heightmap, np.flatnonzero(low)
                span = np.fmax.reduce(np.abs(d[:2, low]).sum(axis=0), initial=0.0)
                width = 2 * int(min(span / hm.resolution, hm.cols + hm.rows)) + 5
                block = max(1, BOX_BLOCK // width)
                for i in range(0, len(low), block):
                    k = low[i : i + block]
                    least, most, at_ends = self._ground_range(a[:, k], b[:, k], d[:, k])
                    # A segment with both ends on the ground must follow it.
                    driven = np.abs(at_ends).max(axis=0) <= GROUND_TOL
                    hit[k] |= (least < 0.0) | driven & (np.maximum(-least, most) > GROUND_TOL)
            seg = np.concatenate((np.zeros(0, dtype=np.intp), *near))
            box = np.repeat(np.arange(len(near)), [len(s) for s in near])
            for i in range(0, len(seg), BOX_BLOCK):
                s, k = seg[i : i + BOX_BLOCK], box[i : i + BOX_BLOCK]
                blo, bhi = self._box_lo[:, k, 0], self._box_hi[:, k, 0]
                pa, pb, pd = (c.take(s, axis=1) for c in (a, b, d))
                c = _points(pa, pb, pd, _box_params(pa, pd, blo, bhi))
                # Each vertex against its own box, as points_in_collision tests a point.
                gap = np.maximum(np.maximum(blo[:, None] - c, c - bhi[:, None]), 0.0)
                gx, gy, gz = gap * gap
                hit[s[(gx + gy + gz <= clearance * clearance).any(axis=0)]] = True
        return hit

    def _hull(self, a, b, clearance: float):
        """The hull test of both swept phases, for segments with (3, K) x, y
        and z rows a and b, on their boxes [min(a, b), max(a, b)]: whether
        each leaves the bounds (a nan end does), whether each reaches below
        the highest ground, _floor_top (on a heightmap the largest elevation
        plus a margin, since a bilinear blend can round past its inputs), and
        per obstacle the indices of the segments whose box lies within
        clearance of it. No pair left out can hit: within the bounds, which
        decide a segment that leaves them, every narrow-phase vertex from
        _points lies in [min(a, b), max(a, b)] in floats (a nan one hits
        nothing), so by monotone rounding its per-axis gaps, their squares
        and their sum are each at least the hull's."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        inside = (lo >= self._bmin[:, None]) & (hi <= self._bmax[:, None])
        near = []
        for olo, ohi in zip(self._box_lo.swapaxes(0, 1), self._box_hi.swapaxes(0, 1)):
            gx, gy, gz = np.square(np.maximum(np.maximum(olo - hi, lo - ohi), 0.0))
            near.append(np.flatnonzero(gx + gy + gz <= clearance * clearance))
        return ~(inside[0] & inside[1] & inside[2]), lo[2] < self._floor_top, near

    def _ground_range(self, a, b, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The least and the greatest z - ground along segments a + t d over
        the heightmap, given as (3, K) x, y and z rows, and z - ground at
        their ends, t = 0 and 1, as (2, K) rows. The extremes are taken at
        0, 1, the crossings of the lattice lines (Amanatides & Woo, "A fast
        voxel traversal algorithm for ray tracing", 1987) and the clamped
        vertex of each piece between them, where the bilinear, edge-clamped
        ground is quadratic in t and its values at the piece's ends and
        midpoint give the vertex. Rows with fewer crossings repeat t = 0, so
        t = 0 and 1 stay the first and the last sorted parameter.
        """
        hm = self.heightmap
        cross = [np.zeros_like(a[:1]), np.ones_like(a[:1])]
        for axis, n in ((0, hm.cols), (1, hm.rows)):
            u0, u1 = ((c[axis] - hm.origin[axis]) / hm.resolution for c in (a, b))
            first = np.fmax(np.ceil(np.minimum(u0, u1)), 0.0)
            count = np.fmin(np.floor(np.maximum(u0, u1)), n - 1.0) - first + 1.0
            lines = np.arange(int(count.max(initial=0.0)))[:, None]
            cross.append(np.where(lines < count, (first + lines - u0) / (u1 - u0), 0.0))
        ends = np.sort(np.fmin(np.fmax(np.concatenate(cross), 0.0), 1.0), axis=0)
        t0, t1 = ends[:-1], ends[1:]
        tm, w = (t0 + t1) * 0.5, t1 - t0
        x, y, z = _points(a, b, d, ends)
        g, gm = self.ground_heights(x, y), self.ground_heights(*_points(a[:2], b[:2], d[:2], tm))
        # On a piece, ground' = (g1 - g0) / w at tm and ground'' = curv / w**2.
        curv = 4.0 * (g[:-1] - 2.0 * gm + g[1:])
        s = np.divide((d[2] * w - g[1:] + g[:-1]) * w, curv, out=np.zeros_like(w), where=curv != 0)
        xv, yv, zv = _points(a, b, d, np.fmin(np.fmax(tm + s, t0), t1))
        h = np.concatenate((z - g, zv - self.ground_heights(xv, yv)))
        return h.min(axis=0), h.max(axis=0), h[[0, len(ends) - 1]]


# Work per pass: the (segment, box) pairs of a segments_hit box pass, which
# makes a few (3, 7, pairs) temporaries; the heightmap parameters of a ground
# pass, segments times the crossings their lattice span allows; and the
# point-box pairs of points_in_collision (node sampling), which makes about
# six (3, boxes, points) temporaries. Of 2,048, 4,096 and 8,192 pairs, 4,096
# timed best for points_in_collision at 512 and 2,048 points in worlds of 4
# to 50 boxes; one point still meets up to 4,096 boxes in one pass.
BOX_BLOCK = 1 << 12


def _rows(points) -> np.ndarray:
    """Points as a (K, 3) float array."""
    return np.asarray(points, dtype=float).reshape(-1, 3)


def distances(a, b) -> np.ndarray:
    """Euclidean length of each row a[k] - b[k] of two (K, 3) point arrays;
    either side may be one point. One rule: the squared x, y and z
    differences summed in that order, then one square root, so a scalar
    math.sqrt(dx * dx + dy * dy + dz * dz) equals it bit for bit. A length
    whose square underflows reads 0.0 and one whose square overflows inf.
    """
    d = _rows(a) - _rows(b)
    d *= d
    return np.sqrt(d[:, 0] + d[:, 1] + d[:, 2])


def _points(a, b, d, t) -> np.ndarray:
    """(3, W, K) x, y and z rows of the points at (W, K) parameters t of
    segments with (3, K) rows a, b and d = b - a, each from its nearer end:
    a + d t up to t = 1/2, else b + d (t - 1). So t = 0 and 1 give a and b
    exactly, and every point lies in [min(a, b), max(a, b)]."""
    near = t <= 0.5
    return np.where(near, a[:, None], b[:, None]) + d[:, None] * np.where(near, t, t - 1.0)


def _box_params(a, d, lo, hi) -> np.ndarray:
    """(7, P) parameters t of segments a + t d, each against its box lo-hi,
    all (3, P) x, y and z rows: on each piece between 0, 1 and the 6 slab
    crossings, the vertex of the squared distance to the box, a quadratic
    there (Ericson, Real-Time Collision Detection, 2005, 5.5.7), clamped
    into the piece. An axis along which a segment does not move crosses at
    t = 0 or 1 (fmax takes 0 / 0 to 0).
    """
    cross = np.minimum(np.fmax(np.concatenate(((lo - a) / d, (hi - a) / d)), 0.0), 1.0)
    ends = np.sort(np.concatenate((np.zeros_like(a[:1]), np.ones_like(a[:1]), cross)), axis=0)
    t0, t1 = ends[:-1], ends[1:]
    tm = (t0 + t1) * 0.5
    a, d = a[:, None], d[:, None]
    # Per axis, the gap to the slab on the piece is g + slope * (t - tm).
    mid = a + d * tm
    g = mid - np.minimum(np.maximum(mid, lo[:, None]), hi[:, None])
    slope = d * (g != 0.0)
    gx, gy, gz = g * slope
    sx, sy, sz = slope * slope
    den = sx + sy + sz
    s = np.divide(gx + gy + gz, den, out=np.zeros_like(tm), where=den > 0.0)
    return np.minimum(np.maximum(tm - s, t0), t1)


class OccupancyGrid:
    """2.5-D occupancy raster over the arena footprint.

    Cell (row, col) covers the square
    [origin_x + col * res, origin_x + (col + 1) * res] x
    [origin_y + row * res, origin_y + (row + 1) * res].
    Cells are either free or occupied; the grid is immutable once built.
    """

    def __init__(self, resolution: float, origin: tuple[float, float], cells: np.ndarray):
        if not resolution > 0.0:  # nan too: CostToGo bands are this wide
            raise ConfigError("grid resolution must be positive")
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))
        arr = np.array(cells, dtype=bool)
        if arr.ndim != 2 or arr.size == 0:
            raise ConfigError("grid cells must be a non-empty 2-D array")
        arr.flags.writeable = False
        self.cells = arr
        self._clearance: np.ndarray | None = None

    @property
    def height(self) -> int:
        """Number of rows (y direction)."""
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        """Number of columns (x direction)."""
        return self.cells.shape[1]

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Cell containing world point (x, y); points on a shared edge fall
        into the higher-index cell, except the outer boundary which maps
        inward, within 1e-9, so the whole footprint is covered. A nan or
        infinite coordinate maps to index -1, off the grid."""
        cell = []
        for d, n in ((y - self.origin[1], self.height), (x - self.origin[0], self.width)):
            q = d / self.resolution
            i = math.floor(q) if abs(q) < math.inf else -1
            cell.append(i - 1 if i == n and abs(d - n * self.resolution) < 1e-9 else i)
        return cell[0], cell[1]

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        return (
            self.origin[0] + (col + 0.5) * self.resolution,
            self.origin[1] + (row + 0.5) * self.resolution,
        )

    def occupied(self, row: int, col: int) -> bool:
        """Occupancy at a cell; anything outside the raster counts occupied."""
        inside = 0 <= row < self.height and 0 <= col < self.width
        return not inside or bool(self.cells[row, col])

    def _raster(self) -> np.ndarray:
        """The distance transform in meters, built on first use and cached
        flat, padded by one 0.0 cell a side: cell (row, col) sits at flat
        index padded_index(row, col), and rows and columns -1 and H (W) are
        the pad."""
        if self._clearance is None:
            clear = np.zeros((self.height + 2, self.width + 2))
            clear[1:-1, 1:-1] = edt(self.cells) * self.resolution
            clear.flags.writeable = False
            self._clearance = clear.ravel()
        return self._clearance

    def padded_index(self, row, col):
        """Flat index of cell (row, col), scalars or arrays, in a raster padded
        by one cell a side, as _raster and CostToGo's fields are laid out."""
        return (row + 1) * (self.width + 2) + col + 1

    def clearance(self, x: float, y: float) -> float:
        """clearances at one point, as a float: the same raster cell, read
        through world_to_cell, which snaps and refuses points as the array
        lookup does."""
        row, col = self.world_to_cell(x, y)
        if not (0 <= row < self.height and 0 <= col < self.width):
            return 0.0
        return float(self._raster()[self.padded_index(row, col)])

    def clearances(self, x, y) -> np.ndarray:
        """Clearance at world points, for arrays x and y of one shape: meters
        from the center of each point's cell (as world_to_cell finds it) to
        the nearest occupied cell center. Infinite on an empty grid; 0.0 on
        occupied and off-grid cells, non-finite coordinates included."""
        w, h = self.width, self.height
        d = np.empty((2,) + np.shape(x))
        np.subtract(x, self.origin[0], out=d[0])
        np.subtract(y, self.origin[1], out=d[1])
        col, row = idx = np.floor(d / self.resolution)
        # Only an index at W (H) or off the raster needs the outer-edge snap
        # and the clip to the pad; nan fails every test, and fmax makes it -1.
        if not (idx.min() >= 0.0 and col.max() < w and row.max() < h):
            for i, e, n in zip(idx, d, (w, h)):
                i -= (i == n) & (np.abs(e - n * self.resolution) < 1e-9)
                np.fmin(np.fmax(i, -1.0, out=i), n, out=i)
        return self._raster().take(self.padded_index(row, col).astype(np.intp))


# Target element count of edt()'s row-pass temporary: 2 MB of float64.
_EDT_CHUNK = 1 << 18


def edt(cells: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance transform of a boolean occupancy raster.

    Returns, for every cell, the distance in cells from its center to the
    nearest occupied cell center: 0 on occupied cells, infinite everywhere
    when no cell is occupied. Separable transform: a column
    pass gives the vertical distance to the nearest occupied cell in the
    same column, then a row pass takes min over columns c' of
    g(c')^2 + (c - c')^2. Every square is an exact integer in float64, so
    the result is the correctly rounded square root of the true squared
    distance. The row pass runs along the shorter axis, a chunk of rows at
    a time (about _EDT_CHUNK elements, never less than one row), so it takes
    O(H * W * min(H, W)) time.
    """
    cells = np.asarray(cells, dtype=bool)
    if cells.shape[1] > cells.shape[0]:
        return edt(cells.T).T
    height, width = cells.shape
    rows = np.arange(height, dtype=float)[:, None]
    above = np.maximum.accumulate(np.where(cells, rows, -np.inf), axis=0)
    below = np.minimum.accumulate(np.where(cells, rows, np.inf)[::-1], axis=0)[::-1]
    g2 = np.minimum(rows - above, below - rows) ** 2
    cols = np.arange(width, dtype=float)
    dc2 = (cols[:, None] - cols[None, :]) ** 2
    d2 = np.empty((height, width))
    chunk = max(1, _EDT_CHUNK // (width * width))
    for r0 in range(0, height, chunk):
        block = g2[r0 : r0 + chunk, None, :] + dc2[None, :, :]
        d2[r0 : r0 + chunk] = block.min(axis=2)
    return np.sqrt(d2)


def project_to_grid(
    env: Environment,
    resolution: float = DEFAULT_GRID_RESOLUTION,
    inflation: float = DEFAULT_INFLATION,
    height_band: tuple[float, float] = DEFAULT_HEIGHT_BAND,
) -> OccupancyGrid:
    """Rasterize the obstacles a driving robot must avoid.

    A cell is occupied when some obstacle both (a) vertically intersects
    [ground + band_low, ground + band_high], with ground evaluated at the
    cell center, and (b) horizontally overlaps the cell footprint after the
    obstacle is expanded by `inflation` on each side (square dilation, so
    boundary contact counts as overlap).

    Args:
        env: world to project.
        resolution: cell edge length in meters.
        inflation: footprint half-width added around every obstacle.
        height_band: (low, high) offsets above local ground that matter to a
            ground vehicle.

    Returns:
        OccupancyGrid covering the bounds footprint.

    Raises:
        ConfigError: non-positive or nan resolution, resolution exceeding the
            bounds extent, negative inflation, or an inverted height band.
    """
    if not resolution > 0.0:
        raise ConfigError("grid resolution must be positive")
    if inflation < 0.0:
        raise ConfigError("inflation must be non-negative")
    low, high = height_band
    if low > high:
        raise ConfigError("height band must satisfy low <= high")
    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    extent_x = hi[0] - lo[0]
    extent_y = hi[1] - lo[1]
    if resolution > extent_x or resolution > extent_y:
        raise ConfigError("grid resolution exceeds bounds extent")
    width = max(1, int(math.ceil(extent_x / resolution - 1e-9)))
    height = max(1, int(math.ceil(extent_y / resolution - 1e-9)))
    cells = np.zeros((height, width), dtype=bool)
    x0, y0 = lo[0], lo[1]

    for obs in env.obstacles:
        ex_lo = (obs.min_corner[0] - inflation, obs.min_corner[1] - inflation)
        ex_hi = (obs.max_corner[0] + inflation, obs.max_corner[1] + inflation)
        # Closed-interval overlap: cell [a, a+res] touches [lo, hi] iff
        # a <= hi and a+res >= lo.
        c0 = int(math.ceil((ex_lo[0] - x0) / resolution - 1.0 - 1e-9))
        c1 = int(math.floor((ex_hi[0] - x0) / resolution + 1e-9))
        r0 = int(math.ceil((ex_lo[1] - y0) / resolution - 1.0 - 1e-9))
        r1 = int(math.floor((ex_hi[1] - y0) / resolution + 1e-9))
        c0, c1 = max(c0, 0), min(c1, width - 1)
        r0, r1 = max(r0, 0), min(r1, height - 1)
        if c0 > c1 or r0 > r1:
            continue
        rows = np.arange(r0, r1 + 1)
        cols = np.arange(c0, c1 + 1)
        cy = y0 + (rows + 0.5) * resolution
        cx = x0 + (cols + 0.5) * resolution
        gx, gy = np.meshgrid(cx, cy)
        ground = env.ground_heights(gx.ravel(), gy.ravel()).reshape(gx.shape)
        band_ok = (obs.min_corner[2] <= ground + high) & (
            obs.max_corner[2] >= ground + low
        )
        block = cells[r0 : r1 + 1, c0 : c1 + 1]
        block |= band_ok
        cells[r0 : r1 + 1, c0 : c1 + 1] = block

    return OccupancyGrid(resolution, (x0, y0), cells)


# -- serialization ---------------------------------------------------------


def point_from_json(value, field: str) -> tuple[float, float, float]:
    """A scenario point: a JSON array of exactly three finite numbers.
    Raises ConfigError naming `field` on anything else."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{field} must be a list of three numbers, got {value!r}")
    return tuple(json_finite(v, f"{field}[{i}]") for i, v in enumerate(value))


def _heightmap_from_json(hm) -> Heightmap:
    """A scenario heightmap: `origin` two numbers, `resolution` a positive
    number, `rows` and `cols` integers >= 1, and `data` rows * cols numbers,
    all finite. Raises ConfigError on anything else."""
    if not isinstance(hm, dict):
        raise ConfigError(f"heightmap must be an object, got {hm!r}")
    missing = [k for k in ("origin", "resolution", "rows", "cols", "data") if k not in hm]
    if missing:
        raise ConfigError(f"heightmap is missing {missing}")
    origin = hm["origin"]
    if not isinstance(origin, list) or len(origin) != 2:
        raise ConfigError(f"heightmap origin must be a list of two numbers, got {origin!r}")
    origin = tuple(json_finite(v, f"heightmap origin[{i}]") for i, v in enumerate(origin))
    resolution = json_finite(hm["resolution"], "heightmap resolution")
    if resolution <= 0.0:
        raise ConfigError(f"heightmap resolution must be positive, got {resolution!r}")
    for key in ("rows", "cols"):
        v = hm[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ConfigError(f"heightmap {key} must be an integer >= 1, got {v!r}")
    rows, cols = hm["rows"], hm["cols"]
    data = hm["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ConfigError(f"heightmap data must be a list of rows*cols = {rows * cols} numbers")
    values = [json_finite(v, f"heightmap data[{i}]") for i, v in enumerate(data)]
    return Heightmap(origin, resolution, np.array(values).reshape(rows, cols))


def environment_from_dict(d: dict) -> Environment:
    """Build an Environment from the scenario JSON schema."""
    try:
        lo, hi = d["bounds"]["min"], d["bounds"]["max"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid or missing bounds: {exc}") from exc
    bounds = Aabb(point_from_json(lo, "bounds min"), point_from_json(hi, "bounds max"), "bounds")
    ground = d.get("ground", {"const": 0.0})
    if isinstance(ground, (int, float)) and not isinstance(ground, bool):
        ground = {"const": float(ground)}
    if not isinstance(ground, dict):
        raise ConfigError("ground must be a number or an object")
    ground_const = None
    heightmap = None
    if "const" in ground:
        ground_const = json_finite(ground["const"], "ground const")
    elif "heightmap" in ground:
        heightmap = _heightmap_from_json(ground["heightmap"])
    else:
        raise ConfigError("ground must specify 'const' or 'heightmap'")
    raw_obstacles = d.get("obstacles", [])
    if not isinstance(raw_obstacles, list):
        raise ConfigError(f"obstacles must be a list, got {raw_obstacles!r}")
    obstacles = []
    for i, od in enumerate(raw_obstacles):
        try:
            lo, hi = od["min"], od["max"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"invalid obstacle {i}: {exc}") from exc
        obstacles.append(
            Aabb(
                point_from_json(lo, f"obstacle {i} min"),
                point_from_json(hi, f"obstacle {i} max"),
                od.get("name", f"obstacle{i}"),
            )
        )
    return Environment(bounds, obstacles, ground_const, heightmap)


def load_environment(path) -> Environment:
    """Load an Environment from a scenario JSON file."""
    return environment_from_dict(load_config_file(path))
