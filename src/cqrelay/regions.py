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

from .channels import BroadcastCQChannel, CQChannel, MACCQChannel, _chi
from .errors import InvalidInputError, ResourceLimitError
from .operators import ProbabilityDistribution, compositions, von_neumann_entropy

_VERTEX_DEDUP_TOL = 1e-8
_COLLINEAR_TOL = 1e-12
_CONTAIN_TOL = 1e-9

# Region grids whose complex stack of averaged states, (G1, G2, dim, dim) for
# mac_region and (G, dim, dim) for broadcast_region, would exceed this many
# bytes are refused.  The hull's per-point work on the same grid takes several
# times the stack (about 7x for qutrit outputs), so this keeps a whole run
# under about 1 GB.
_PENTAGON_STACK_BYTE_LIMIT = 128 * 2**20


def _require_stack_bytes(points: int, dim: int, what: str) -> None:
    stack_bytes = points * dim * dim * np.dtype(complex).itemsize
    if stack_bytes > _PENTAGON_STACK_BYTE_LIMIT:
        raise ResourceLimitError(
            f"{what} grid needs a {stack_bytes / 2**30:.3g} GiB state stack, "
            f"above the {_PENTAGON_STACK_BYTE_LIMIT / 2**30:.3g} GiB limit; use a coarser grid"
        )


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
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, (int, np.integer)):
            raise InvalidInputError(f"grid resolution must be an integer, got {self.resolution!r}")
        if self.resolution < 1:
            raise InvalidInputError("grid resolution must be >= 1")
        if self.resolution > np.iinfo(np.intp).max:
            raise InvalidInputError(f"grid resolution {self.resolution} exceeds {np.iinfo(np.intp).max}")
        object.__setattr__(self, "labels", tuple(self.labels))

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

    def distributions(self):
        for row in self.weight_matrix():
            yield ProbabilityDistribution(self.labels, row)


def _run_ids(values: np.ndarray, tol: float) -> np.ndarray:
    """Label runs of sorted values whose neighbours are at most tol apart.

    Float subtraction is monotone, so two values within tol of each other
    always share a label.
    """
    order = np.argsort(values)
    ids = np.empty(len(values), dtype=np.int64)
    ids[order] = np.cumsum(np.diff(values[order], prepend=values[order[:1]]) > tol)
    return ids


def _dedup_points(points, tol=_VERTEX_DEDUP_TOL):
    """Drop each point within tol, in both coordinates, of an earlier kept point.

    Exact repeats go first, in order: a repeat is always within tol of the
    point that absorbed its twin.  A point alone in its pair of x and y runs
    (``_run_ids``) has no other point within tol and is kept outright.
    Each remaining point is compared only with the kept points in the
    neighbouring cells of a hash grid.  Cells are 2*tol wide, so two points
    within tol of each other land in the same or adjacent cells even when
    x / cell is off by rounding.
    """
    pts = list(dict.fromkeys(points))
    xy = np.array(pts, dtype=float).reshape(-1, 2)
    runs = _run_ids(xy[:, 0], tol) * len(pts) + _run_ids(xy[:, 1], tol)
    _, where, sizes = np.unique(runs, return_inverse=True, return_counts=True)
    keep = sizes[where] == 1
    cell = 2.0 * tol
    buckets: dict[tuple[int, int], list] = {}
    for k in np.flatnonzero(~keep).tolist():
        p = pts[k]
        i, j = math.floor(p[0] / cell), math.floor(p[1] / cell)
        near = (q for di in (-1, 0, 1) for dj in (-1, 0, 1) for q in buckets.get((i + di, j + dj), ()))
        if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol for q in near):
            keep[k] = True
            buckets.setdefault((i, j), []).append(p)
    return [p for p, kept in zip(pts, keep.tolist()) if kept]


def _point_array(points) -> np.ndarray:
    """Rate points as a finite (P, 2) float array."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError("rate points must be (R1, R2) pairs")
    if not np.isfinite(pts).all():
        raise InvalidInputError("rate points must be finite")
    return pts


def convex_hull(points) -> list[tuple[float, float]]:
    """Monotone-chain hull, counterclockwise from the lexicographically
    smallest point; degenerate inputs give 1-2 points.

    Coordinates are rounded to 12 decimals first: float jitter far below the
    rate scale can otherwise reorder sort ties along a near-vertical edge,
    and the collinearity pops then erode a true corner point.  Exact repeats
    are dropped before rounding and the tolerant dedup is linear, so the
    cost is one sort of the distinct points.
    """
    distinct = dict.fromkeys(map(tuple, _point_array(points).tolist()))
    pts = sorted(_dedup_points([(round(x, 12), round(y, 12)) for x, y in distinct]))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= _COLLINEAR_TOL:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= _COLLINEAR_TOL:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True, eq=False)
class RateRegion:
    """Convex polygon of achievable rate pairs, containing the origin."""

    vertices: tuple  # RatePair, counterclockwise from the lexicographically smallest
    halfplanes: tuple  # (a, b, c) with a*R1 + b*R2 <= c, unit normals

    @classmethod
    def from_points(cls, points) -> "RateRegion":
        pts = _point_array(points)
        if len(pts) == 0:
            raise InvalidInputError("a region needs at least one point")
        pts = np.where(np.abs(pts) < _VERTEX_DEDUP_TOL, 0.0, pts)
        negative = (pts < 0.0).any(axis=1)
        if negative.any():
            x, y = pts[np.argmax(negative)].tolist()
            raise InvalidInputError(f"rate point ({x}, {y}) is negative")
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

    def contains(self, r1: float, r2: float, tol: float = _CONTAIN_TOL) -> bool:
        return all(a * r1 + b * r2 <= c + tol for a, b, c in self.halfplanes)

    def max_sum_rate(self) -> float:
        return max(v.r1 + v.r2 for v in self.vertices)


def _clip_by_halfplane(vertices, plane, tol=_COLLINEAR_TOL):
    a, b, c = plane
    m = len(vertices)
    if m == 0:
        return []
    if m == 1:
        (x, y) = vertices[0]
        return list(vertices) if a * x + b * y <= c + tol else []
    out = []
    for i in range(m):
        sx, sy = vertices[i]
        ex, ey = vertices[(i + 1) % m]
        ds = a * sx + b * sy - c
        de = a * ex + b * ey - c
        if ds <= tol:
            out.append((sx, sy))
        if (ds <= tol) != (de <= tol) and ds != de:
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


def _with_origin(corners: np.ndarray) -> np.ndarray:
    """The origin once, then the corners as (x, y) rows in grid order."""
    return np.concatenate([np.zeros((1, 2)), corners.reshape(-1, 2)])


def _pentagon_bounds(
    mac: MACCQChannel,
    grid: DistributionGrid,
    variant: str,
    grid2: DistributionGrid | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (G1, G2) arrays A (caps R2), B (caps R1) and C (caps R1 + R2)."""
    if variant not in ("conditional", "as-written"):
        raise InvalidInputError(f"unknown region variant {variant!r}")
    a1, a2 = mac.alphabets
    d1, d2 = len(a1), len(a2)
    if grid.labels != tuple(a1):
        raise InvalidInputError("grid labels must match the first sender alphabet")
    if grid2 is None:
        grid2 = DistributionGrid(tuple(a2), grid.resolution)
    elif grid2.labels != tuple(a2):
        raise InvalidInputError("grid2 labels must match the second sender alphabet")
    states = np.stack([np.stack([mac.state(y1, y2) for y2 in a2]) for y1 in a1])
    dim = states.shape[-1]
    _require_stack_bytes(grid.size * grid2.size, dim, "MAC region")
    ent = von_neumann_entropy(states.reshape(d1 * d2, dim, dim)).reshape(d1, d2)

    q1 = grid.weight_matrix()  # (G1, d1)
    q2 = grid2.weight_matrix()  # (G2, d2)
    g1, g2 = q1.shape[0], q2.shape[0]

    # Slice averages reused by both variants: over sender 1 per y2, and the
    # mirror image.
    slice2 = np.einsum("gi,ijkl->gjkl", q1, states)
    h_slice2 = von_neumann_entropy(slice2.reshape(-1, dim, dim)).reshape(g1, d2)
    slice1 = np.einsum("hj,ijkl->hikl", q2, states)
    h_slice1 = von_neumann_entropy(slice1.reshape(-1, dim, dim)).reshape(g2, d1)

    sigma = np.einsum("hj,gjkl->ghkl", q2, slice2)  # (G1, G2, dim, dim)
    h_sigma = von_neumann_entropy(sigma.reshape(-1, dim, dim)).reshape(g1, g2)
    mean_ent = q1 @ ent @ q2.T  # (G1, G2)
    c_bound = h_sigma - mean_ent

    # Convention: the bound built from the first sender's distribution caps
    # R2, the mirror-image bound caps R1.
    if variant == "conditional":
        a_bound = (h_slice2 - q1 @ ent) @ q2.T
        b_bound = q1 @ (h_slice1 - q2 @ ent.T).T
    else:
        a_bound = h_sigma - q1 @ h_slice1.T
        b_bound = h_sigma - h_slice2 @ q2.T
    return a_bound, b_bound, c_bound


def mac_region(
    mac: MACCQChannel,
    grid: DistributionGrid,
    variant: str = "conditional",
    grid2: DistributionGrid | None = None,
) -> RateRegion:
    """Union of pentagons over independent sender distributions, then hull.

    Each pair (Q1, Q2) from the two simplex grids yields the pentagon
    {R2 <= A, R1 <= B, R1 + R2 <= C}.  'conditional' averages the slice
    information over the other sender (the form whose classical
    specializations come out right); 'as-written' scores each sender
    against the other-averaged channel.  grid2 defaults to the same
    resolution over the second alphabet.
    """
    a, b, c = (np.maximum(bound, 0.0) for bound in _pentagon_bounds(mac, grid, variant, grid2))
    aa, bb = np.minimum(a, c), np.minimum(b, c)
    zero = np.zeros_like(c)
    # Corners (B, 0), (0, A), (B, min(A, C - B)) and (min(B, C - A), A).
    corners = np.stack([bb, zero, zero, aa, bb, np.minimum(aa, c - bb), np.minimum(bb, c - aa), aa], axis=-1)
    return RateRegion.from_points(_with_origin(corners))


def broadcast_region(bc: BroadcastCQChannel, grid: DistributionGrid) -> RateRegion:
    """Union of per-distribution rectangles (chi to each receiver), then hull."""
    if grid.labels != bc.alphabet:
        raise InvalidInputError("grid labels must match the broadcast alphabet")
    _require_stack_bytes(grid.size, max(bc.dims), "broadcast region")
    weights = grid.weight_matrix()
    x1 = np.maximum(_chi(bc.marginal(1), weights), 0.0)
    x2 = np.maximum(_chi(bc.marginal(2), weights), 0.0)
    zero = np.zeros_like(x1)
    return RateRegion.from_points(_with_origin(np.stack([x1, zero, zero, x2, x1, x2], axis=-1)))


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    theta = css[rho - 1] / rho
    return np.clip(v - theta, 0.0, None)


def _refine_simplex_ascent(chi, weights: np.ndarray, steps: int):
    """Projected coordinate-ascent refinement; accepts only improvements."""
    w = weights.copy()
    best = chi(w)
    step = 0.5 / max(len(w), 2)
    h = 1e-6
    for _ in range(steps):
        # one chi call for all coordinate probes: a row of a weight stack
        # scores as that row alone, bit for bit
        probes = np.array([_project_to_simplex(w + h * e) for e in np.eye(len(w))])
        grad = (chi(probes) - best) / h
        cand = _project_to_simplex(w + step * grad)
        cand_val = chi(cand)
        if cand_val > best:
            w, best = cand, cand_val
        else:
            step /= 2.0
    return w, best


def optimize_chi(
    channel: CQChannel, grid: DistributionGrid, refine_steps: int = 50
) -> tuple[ProbabilityDistribution, float]:
    """Grid search for the Holevo information, then local simplex ascent."""
    if grid.labels != channel.alphabet:
        raise InvalidInputError("grid labels must match the channel alphabet")
    _require_stack_bytes(grid.size, channel.output_dim, "chi search")
    # the letter-state entropies do not depend on the weights: one eigvalsh
    # per letter for the whole search
    entropies = [von_neumann_entropy(channel.state(a)) for a in channel.alphabet]

    def chi(weights):
        return _chi(channel, weights, entropies)

    mat = grid.weight_matrix()
    best_idx = int(np.argmax(chi(mat)))
    w, best = _refine_simplex_ascent(chi, mat[best_idx], refine_steps)
    w = w / w.sum()
    return ProbabilityDistribution(channel.alphabet, w), float(best)


def weighted_boundary_point(region: RateRegion, mu: float) -> RatePair:
    """Vertex maximizing R1 + mu*R2."""
    if not isinstance(region, RateRegion):
        raise InvalidInputError("expected a RateRegion")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise InvalidInputError(f"weight must be finite and nonnegative, got {mu}")
    best = max(region.vertices, key=lambda v: v.r1 + mu * v.r2)
    return best
