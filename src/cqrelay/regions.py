"""Achievable rate regions: grid evaluation, convex hulls, and intersections.

Regions are convex polygons in the nonnegative rate quadrant, stored as
counterclockwise vertex lists together with the bounding halfplanes
a*R1 + b*R2 <= c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import BroadcastCQChannel, MACCQChannel, _averaged_states, _letter_sum
from .errors import InvalidInputError
from .operators import _integer_arg, _numeric_array, _real_arg, _require_bytes, compositions, von_neumann_entropy

# The two geometric tolerances.
#
# Lengths, absolute on rates in bits, whose scale is 1: a coordinate below
# this in magnitude snaps to 0, two points this close in both coordinates are
# one point, and a point this far outside a halfplane is on its inside.  A
# snapped vertex may move by this much in each coordinate, so containment
# defaults to twice it (RateRegion.contains).
_LENGTH_TOL = 1e-8

# Turns, relative: the hull drops the middle point b of o, b, p when the
# sine of the turn, cross(o, b, p) / (|b - o| |p - o|), is at most this, so
# a short edge of a thin region keeps its corners whatever its length.
_TURN_TOL = 1e-12


# The grid is walked whole rows at a time, up to this many points (at least
# one row), so a region's memory does not grow with its grid.
_CHUNK_POINTS = 2048

# Prices in bytes: a grid point's bounds and corners beyond its state
# stacks; a Pareto candidate as it is folded and as the hull takes it; a
# slice average's weights and entropies beyond its stacks; a grid weight as
# its lattice is built.
_POINT_BYTES = 256
_CANDIDATE_BYTES = 512
_SLICE_BYTES = 64
_WEIGHT_BYTES = 32


class RatePair(NamedTuple):
    r1: float
    r2: float


@dataclass(frozen=True)
class DistributionGrid:
    """Lattice of distributions with weights m/resolution on the simplex."""

    labels: tuple
    resolution: int

    def __post_init__(self):
        if not self.labels:
            raise InvalidInputError("grid needs a nonempty label alphabet")
        resolution = _integer_arg(self.resolution, "grid resolution", 1)
        if resolution > np.iinfo(np.intp).max:
            raise InvalidInputError(f"grid resolution {resolution} exceeds {np.iinfo(np.intp).max}")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "resolution", resolution)

    @property
    def size(self) -> int:
        """The number of lattice points, exact however large (len() stops at sys.maxsize)."""
        d = len(self.labels)
        return math.comb(self.resolution + d - 1, d - 1)

    def __len__(self) -> int:
        return self.size

    def weight_matrix(self) -> np.ndarray:
        """All lattice weights as a (grid size, |labels|) array."""
        return compositions(self.resolution, len(self.labels)) / self.resolution


def _dedup_points(points):
    """Drop each point within _LENGTH_TOL (tol below), in both
    coordinates, of an earlier kept point, so every exact repeat goes.

    Each point is compared only with the kept points in the neighbouring
    cells of a hash grid.  Cells are 2*tol wide, so two points within tol
    of each other land in the same or adjacent cells even when x / cell is
    off by rounding.
    """
    tol = _LENGTH_TOL
    cell = 2.0 * tol
    buckets: dict[tuple[int, int], list] = {}
    kept = []
    for p in points:
        i, j = math.floor(p[0] / cell), math.floor(p[1] / cell)
        near = (q for di in (-1, 0, 1) for dj in (-1, 0, 1) for q in buckets.get((i + di, j + dj), ()))
        if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol for q in near):
            kept.append(p)
            buckets.setdefault((i, j), []).append(p)
    return kept


def _point_array(points) -> np.ndarray:
    """Rate points as a finite (P, 2) float array."""
    pts = _numeric_array(points, "rate points", real=True)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError("rate points must be (R1, R2) pairs")
    if not np.isfinite(pts).all():
        raise InvalidInputError("rate points must be finite")
    return pts


def _rate_points(points) -> np.ndarray:
    """Rate points as a finite (P, 2) array, coordinates below _LENGTH_TOL
    in magnitude snapped to 0; a negative point is refused."""
    pts = _point_array(points)
    pts = np.where(np.abs(pts) < _LENGTH_TOL, 0.0, pts)
    negative = (pts < 0.0).any(axis=1)
    if negative.any():
        x, y = pts[np.argmax(negative)].tolist()
        raise InvalidInputError(f"rate point ({x}, {y}) is negative")
    return pts


def convex_hull(points) -> list[tuple[float, float]]:
    """Monotone-chain hull, counterclockwise from the lexicographically
    smallest point; degenerate inputs give 1-2 points.

    Coordinates are rounded to 12 decimals first: float jitter far below the
    rate scale can otherwise reorder sort ties along a near-vertical edge,
    and the turn pops then erode a true corner point.  The tolerant dedup
    is linear, so the cost is one sort of the distinct points.
    """
    rounded = [(round(x, 12), round(y, 12)) for x, y in _point_array(points).tolist()]
    # the origin first, so that the keep-first dedup drops a point within
    # tol of it, never the origin itself
    rounded.sort(key=lambda p: p != (0.0, 0.0))
    pts = sorted(_dedup_points(rounded))
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        # distinct points after the dedup, so neither length is 0
        (ax, ay), (bx, by) = (a[0] - o[0], a[1] - o[1]), (b[0] - o[0], b[1] - o[1])
        return (ax * by - ay * bx) / (math.hypot(ax, ay) * math.hypot(bx, by))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= _TURN_TOL:
                out.pop()
            out.append(p)
        return out[:-1]  # the last point starts the other chain

    return chain(pts) + chain(reversed(pts))


@dataclass(frozen=True, eq=False)
class RateRegion:
    """Convex polygon of achievable rate pairs, containing the origin."""

    vertices: tuple  # RatePair, counterclockwise from the lexicographically smallest
    halfplanes: tuple  # (a, b, c) with a*R1 + b*R2 <= c, unit normals

    @classmethod
    def from_points(cls, points) -> "RateRegion":
        pts = _rate_points(points)
        if len(pts) == 0:
            raise InvalidInputError("a region needs at least one point")
        # the hull starts at the lexicographically smallest point
        ordered = tuple(RatePair(*p) for p in convex_hull(pts))
        return cls(vertices=ordered, halfplanes=cls._halfplanes_of(ordered))

    @staticmethod
    def _halfplanes_of(vertices) -> tuple:
        planes = []

        def add(a, b, c):
            norm = math.hypot(a, b)
            if norm > 0.0:
                planes.append((a / norm, b / norm, c / norm))

        if len(vertices) == 1:
            (x, y) = vertices[0]
            add(1.0, 0.0, x)
            add(-1.0, 0.0, -x)
            add(0.0, 1.0, y)
            add(0.0, -1.0, -y)
        elif len(vertices) == 2:
            (x0, y0), (x1, y1) = vertices
            dx, dy = x1 - x0, y1 - y0
            add(dy, -dx, dy * x0 - dx * y0)
            add(-dy, dx, -(dy * x0 - dx * y0))
            add(dx, dy, dx * x1 + dy * y1)
            add(-dx, -dy, -(dx * x0 + dy * y0))
        else:
            m = len(vertices)
            for i in range(m):
                (x0, y0), (x1, y1) = vertices[i], vertices[(i + 1) % m]
                # Outward normal of a counterclockwise edge.
                add(y1 - y0, -(x1 - x0), (y1 - y0) * x0 - (x1 - x0) * y0)
        return tuple(planes)

    def contains(self, r1: float, r2: float, tol: float = 2 * _LENGTH_TOL) -> bool:
        r1, r2, tol = _real_arg(r1, "rate R1"), _real_arg(r2, "rate R2"), _real_arg(tol, "tolerance")
        return all(a * r1 + b * r2 <= c + tol for a, b, c in self.halfplanes)

    def max_sum_rate(self) -> float:
        return max(v.r1 + v.r2 for v in self.vertices)


def _clip_by_halfplane(vertices, plane):
    a, b, c = plane
    m = len(vertices)
    if m == 0:
        return []
    if m == 1:
        (x, y) = vertices[0]
        return list(vertices) if a * x + b * y <= c + _LENGTH_TOL else []
    out = []
    for i in range(m):
        sx, sy = vertices[i]
        ex, ey = vertices[(i + 1) % m]
        ds = a * sx + b * sy - c
        de = a * ex + b * ey - c
        if ds <= _LENGTH_TOL:
            out.append((sx, sy))
        if (ds <= _LENGTH_TOL) != (de <= _LENGTH_TOL) and ds != de:
            t = ds / (ds - de)
            out.append((sx + t * (ex - sx), sy + t * (ey - sy)))
    return _dedup_points(out)


def intersect_regions(first: RateRegion, second: RateRegion) -> RateRegion:
    """Clip the first region by every halfplane of the second."""
    poly = [(v.r1, v.r2) for v in first.vertices]
    for plane in second.halfplanes:
        poly = _clip_by_halfplane(poly, plane)
        if not poly:
            return RateRegion.from_points([(0.0, 0.0)])
    return RateRegion.from_points(poly)


def _union_candidates(points) -> np.ndarray:
    """The points of a union of downward-closed sets that its hull can need.

    points holds the corners of pentagons or rectangles in the nonnegative
    quadrant, each with its axis corners, and the origin.  They are checked
    and snapped as ``RateRegion.from_points`` does; then only these stay, in
    input order: the origin, the x-axis point (y == 0) with the largest x,
    the y-axis point (x == 0) with the largest y, and every point that no
    other point dominates (>= in both coordinates).  Of exact repeats the
    first stays.

    The survivors span the same hull.  Each set is downward closed and
    contributes its axis corners, so a point dominated by q lies in the box
    [0, q.x] x [0, q.y], and that box lies in the hull of the origin, the
    two axis extremes and q.  Under ``convex_hull``'s tolerances, which of
    two points within the dedup tolerance survives can change, and a
    dominated point can no longer take part in a collinear pop.

    The front is one sort, x descending then y descending (stable, so
    repeats keep their input order), and one running maximum of y: a point
    is on it iff its y exceeds every y before it.
    """
    pts = _rate_points(points)
    x, y = pts[:, 0], pts[:, 1]
    order = np.lexsort((-y, -x))
    ys = y[order]
    keep = np.empty(len(pts), dtype=bool)
    keep[order] = ys > np.concatenate(([-np.inf], np.maximum.accumulate(ys)[:-1]))
    for on_axis, along in ((y == 0.0, x), (x == 0.0, y)):
        idx = np.flatnonzero(on_axis)
        if len(idx):
            keep[idx[np.argmax(along[idx])]] = True
    keep[np.flatnonzero((x == 0.0) & (y == 0.0))[:1]] = True
    return pts[keep]


def _union_region(rows: int, row_points: int, held: int, point_bytes: int, corners, what: str) -> RateRegion:
    """The hull of a union of downward-closed sets over a grid of rows.

    corners(lo, hi) gives the corners of the sets of rows lo..hi-1, in grid
    order, as an array of (x, y) rows.  Whole rows are taken up to
    _CHUNK_POINTS points at a time (at least one row).  Each chunk's corners
    are cut to their own candidates, which wait until they are as many as
    the running candidates (which start from the origin) and are then
    folded into them, so no candidate is sorted again for every chunk.
    Dominance is transitive and each fold keeps grid order and the first of
    exact repeats, so the candidates are those of the whole grid at once.
    Before each chunk, and before the hull, what is priced at the held
    bytes the chunks share, point_bytes a chunk point and the candidates at
    their count.
    """
    step = max(1, _CHUNK_POINTS // row_points)
    kept, waiting = np.zeros((1, 2)), []
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        candidates = len(kept) + sum(map(len, waiting))
        _require_bytes(held + (hi - lo) * row_points * point_bytes + candidates * _CANDIDATE_BYTES, what)
        waiting.append(_union_candidates(corners(lo, hi)))
        if sum(map(len, waiting)) >= len(kept) or hi == rows:
            kept, waiting = _union_candidates(np.concatenate([kept, *waiting])), []
    _require_bytes(held + len(kept) * _CANDIDATE_BYTES, what)
    return RateRegion.from_points(kept)


def _stack_bytes(state: np.ndarray) -> int:
    """A price of one matrix like state, averaged against float64 weights
    (so float64 for real letter states, complex128 otherwise), in each of
    the four stacks an entropy of a stack of them holds."""
    return 4 * state.shape[-1] ** 2 * np.result_type(float, state.dtype).itemsize


def mac_region(mac: MACCQChannel, grid: DistributionGrid, variant: str = "conditional") -> RateRegion:
    """Union of pentagons over independent sender distributions, then hull.

    Each pair (Q1, Q2) from the two simplex grids yields the pentagon
    {R2 <= A, R1 <= B, R1 + R2 <= C}.  'conditional' averages the slice
    information over the other sender (the form whose classical
    specializations come out right); 'as-written' scores each sender
    against the other-averaged channel.  The second sender's grid has the
    same resolution over its own alphabet.

    The letter entropies, both grids' weights, and the slice averages over
    each sender with their entropies are computed once; the average states
    of the (Q1, Q2) pairs, their bounds and corners go a chunk of Q1 rows
    at a time.
    """
    if variant not in ("conditional", "as-written"):
        raise InvalidInputError(f"unknown region variant {variant!r}")
    a1, a2 = mac.alphabets
    d1, d2 = len(a1), len(a2)
    if grid.labels != tuple(a1):
        raise InvalidInputError("grid labels must match the first sender alphabet")
    grid2 = DistributionGrid(tuple(a2), grid.resolution)
    states = np.stack([np.stack([mac.state(y1, y2) for y2 in a2]) for y1 in a1])
    dim = states.shape[-1]
    g1, g2 = grid.size, grid2.size
    stack = _stack_bytes(states)
    slices = g1 * d2 + g2 * d1
    what = f"MAC region grid of {g1 * g2} points"
    _require_bytes(slices * (stack + _SLICE_BYTES), what)
    ent = von_neumann_entropy(states.reshape(d1 * d2, dim, dim)).reshape(d1, d2)
    q1 = grid.weight_matrix()  # (G1, d1)
    q2 = grid2.weight_matrix()  # (G2, d2)

    # Slice averages: over sender 1 per y2, and the mirror image.
    slice2 = np.einsum("gi,ijkl->gjkl", q1, states)
    h_slice2 = von_neumann_entropy(slice2.reshape(-1, dim, dim)).reshape(g1, d2)
    slice1 = np.einsum("hj,ijkl->hikl", q2, states)
    h_slice1 = von_neumann_entropy(slice1.reshape(-1, dim, dim)).reshape(g2, d1)
    del slice1
    q1_ent = q1 @ ent  # (G1, d2)
    if variant == "conditional":
        info2, info1 = h_slice2 - q1_ent, h_slice1 - q2 @ ent.T

    def corners(lo, hi):
        sigma = np.einsum("hj,gjkl->ghkl", q2, slice2[lo:hi])
        h_sigma = von_neumann_entropy(sigma.reshape(-1, dim, dim)).reshape(hi - lo, g2)
        del sigma
        c = h_sigma - q1_ent[lo:hi] @ q2.T
        # Convention: the bound built from the first sender's distribution
        # caps R2, the mirror-image bound caps R1.
        if variant == "conditional":
            a, b = info2[lo:hi] @ q2.T, q1[lo:hi] @ info1.T
        else:
            a, b = h_sigma - q1[lo:hi] @ h_slice1.T, h_sigma - h_slice2[lo:hi] @ q2.T
        a, b, c = (np.maximum(bound, 0.0) for bound in (a, b, c))
        aa, bb = np.minimum(a, c), np.minimum(b, c)
        zero = np.zeros_like(c)
        # Corners (B, 0), (0, A), (B, min(A, C - B)) and (min(B, C - A), A).
        pentagons = [bb, zero, zero, aa, bb, np.minimum(aa, c - bb), np.minimum(bb, c - aa), aa]
        return np.stack(pentagons, axis=-1).reshape(-1, 2)

    # the chunks share the slices over sender 1 and every slice's weights
    held = slice2.nbytes + slices * _SLICE_BYTES
    return _union_region(g1, g2, held, stack + _POINT_BYTES, corners, what)


def broadcast_region(bc: BroadcastCQChannel, grid: DistributionGrid) -> RateRegion:
    """Union of per-distribution rectangles (chi to each receiver), then hull.

    The letter entropies and the grid's weights are computed once; the
    average states, the chi pair and the corners go a chunk of grid points
    at a time.
    """
    if grid.labels != bc.alphabet:
        raise InvalidInputError("grid labels must match the broadcast alphabet")
    marginals = (bc.marginal(1), bc.marginal(2))
    letters = [np.stack([marginal.state(x) for x in bc.alphabet]) for marginal in marginals]
    what = f"broadcast region grid of {grid.size} points"
    _require_bytes(grid.size * len(bc.alphabet) * _WEIGHT_BYTES, what)
    weights = grid.weight_matrix()
    letter_ent = [von_neumann_entropy(stack) for stack in letters]

    def corners(lo, hi):
        w = weights[lo:hi]
        x1, x2 = (
            np.maximum(von_neumann_entropy(_averaged_states(marginal, w)) - _letter_sum(w, ent.__getitem__), 0.0)
            for marginal, ent in zip(marginals, letter_ent)
        )
        zero = np.zeros_like(x1)
        return np.stack([x1, zero, zero, x2, x1, x2], axis=-1).reshape(-1, 2)

    point_bytes = max(_stack_bytes(stack) for stack in letters) + _POINT_BYTES
    return _union_region(grid.size, 1, weights.nbytes, point_bytes, corners, what)
