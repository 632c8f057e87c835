"""Quadratic oracle for the region engine.

``convex_hull``'s dedup checks each point against the kept points in the
neighbouring cells of a hash grid of 2*tol cells; ``mac_region`` and
``broadcast_region`` evaluate their grids a chunk of rows at a time and
fold each chunk's Pareto candidates into the running ones.  The oracle is
the direct construction: a point-by-point dedup against every kept point,
a hull of all rounded points, and point lists built one pentagon or
rectangle at a time, each from its own entropies, with the origin in each.
Every result must be equal to the oracle's, not merely close.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqrelay import regions
from cqrelay.channels import (
    BroadcastCQChannel,
    MACCQChannel,
    adder_mac_channel,
    depolarized_channel,
    holevo_chi,
    orthogonal_pure_channel,
    product_broadcast_channel,
)
from cqrelay.errors import InvalidInputError
from cqrelay.lemmas import random_density
from cqrelay.operators import ProbabilityDistribution, von_neumann_entropy
from cqrelay.regions import (
    _LENGTH_TOL,
    _TURN_TOL,
    DistributionGrid,
    RatePair,
    RateRegion,
    _dedup_points,
    broadcast_region,
    convex_hull,
    mac_region,
)

TOL = _LENGTH_TOL
CELL = 2.0 * TOL


# ---------------------------------------------------------------------------
# The oracle.
# ---------------------------------------------------------------------------


def oracle_dedup(points, tol=TOL):
    out = []
    for p in points:
        if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol for q in out):
            out.append(p)
    return out


def oracle_hull(points):
    rounded = [(round(float(p[0]), 12), round(float(p[1]), 12)) for p in points]
    # the origin is kept over any point within TOL of it, wherever it stands
    origin = [p for p in rounded if p == (0.0, 0.0)][:1]
    pts = sorted(oracle_dedup(origin + rounded))
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        # the sine of the turn at a
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        return cross / (math.dist(o, a) * math.dist(o, b))

    lower = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= _TURN_TOL:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= _TURN_TOL:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [pts[0], pts[-1]]
    return hull


def oracle_vertices(points):
    cleaned = []
    for p in points:
        x, y = float(p[0]), float(p[1])
        cleaned.append((0.0 if abs(x) < TOL else x, 0.0 if abs(y) < TOL else y))
    assert all(x >= 0.0 and y >= 0.0 for x, y in cleaned)
    hull = oracle_hull(cleaned)
    start = min(range(len(hull)), key=lambda i: hull[i])
    return tuple(RatePair(*hull[(start + i) % len(hull)]) for i in range(len(hull)))


def oracle_pentagon_points(a, b, c):
    a, b, c = max(a, 0.0), max(b, 0.0), max(c, 0.0)
    aa, bb = min(a, c), min(b, c)
    return [(0.0, 0.0), (bb, 0.0), (0.0, aa), (bb, min(aa, c - bb)), (min(bb, c - aa), aa)]


def oracle_pentagon_bounds(rho, h, q1, q2, variant):
    """(A, B, C) of one pair (Q1, Q2) from its own entropies: rho[i][j] is
    the state of the sender letters (i, j) and h[i][j] its entropy."""
    n1, n2 = range(len(q1)), range(len(q2))

    def mix(pairs):
        return sum(w * r for w, r in pairs)

    h_sigma = von_neumann_entropy(mix([(q1[i] * q2[j], rho[i][j]) for i in n1 for j in n2]))
    c = h_sigma - sum(q1[i] * q2[j] * h[i][j] for i in n1 for j in n2)
    # the average over sender 1 at y2 = j, and over sender 2 at y1 = i
    h_over1 = [von_neumann_entropy(mix([(q1[i], rho[i][j]) for i in n1])) for j in n2]
    h_over2 = [von_neumann_entropy(mix([(q2[j], rho[i][j]) for j in n2])) for i in n1]
    if variant == "conditional":
        a = sum(q2[j] * (h_over1[j] - sum(q1[i] * h[i][j] for i in n1)) for j in n2)
        b = sum(q1[i] * (h_over2[i] - sum(q2[j] * h[i][j] for j in n2)) for i in n1)
    else:
        a = h_sigma - sum(q1[i] * h_over2[i] for i in n1)
        b = h_sigma - sum(q2[j] * h_over1[j] for j in n2)
    return a, b, c


def oracle_mac_points(mac, grid, variant):
    """Pentagon corners one pair (Q1, Q2) at a time, in grid order."""
    a1, a2 = mac.alphabets
    rho = [[mac.state(y1, y2) for y2 in a2] for y1 in a1]
    h = [[von_neumann_entropy(r) for r in row] for row in rho]
    grid2 = DistributionGrid(tuple(a2), grid.resolution)
    points = []
    for q1 in grid.weight_matrix().tolist():
        for q2 in grid2.weight_matrix().tolist():
            points.extend(oracle_pentagon_points(*oracle_pentagon_bounds(rho, h, q1, q2, variant)))
    return points


def oracle_chi_evaluator(channel):
    def chi(weights):
        return holevo_chi(channel, ProbabilityDistribution(channel.alphabet, weights))

    return chi


def oracle_broadcast_points(bc, grid):
    chi1 = oracle_chi_evaluator(bc.marginal(1))
    chi2 = oracle_chi_evaluator(bc.marginal(2))
    points = []
    for weights in grid.weight_matrix():
        x1 = max(0.0, chi1(weights))
        x2 = max(0.0, chi2(weights))
        points.extend([(0.0, 0.0), (x1, 0.0), (0.0, x2), (x1, x2)])
    return points


# ---------------------------------------------------------------------------
# Point clouds: clusters at 0.5, 1 and 1.5 tol, points on cell boundaries,
# coordinates from 1e-9 to 10, and exact repeats.
# ---------------------------------------------------------------------------

coordinate = st.one_of(
    st.floats(min_value=1e-9, max_value=10.0),
    st.integers(min_value=0, max_value=3).map(lambda k: k * CELL),
    st.sampled_from([0.0, -0.0, 1e-9, 10.0]),
)
offset = st.sampled_from([0.0, 0.5 * TOL, -0.5 * TOL, TOL, -TOL, 1.5 * TOL, -1.5 * TOL])


@st.composite
def point_clouds(draw):
    centres = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8))
    points = []
    for cx, cy in centres:
        for dx, dy in draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=6)):
            points.append((cx + dx, cy + dy))
    repeats = draw(st.lists(st.integers(min_value=0, max_value=len(points) - 1), max_size=6))
    for k in repeats:
        points.insert(draw(st.integers(min_value=0, max_value=len(points))), points[k])
    return draw(st.permutations(points))


@settings(max_examples=150, deadline=None)
@given(point_clouds())
def test_dedup_matches_oracle(points):
    assert _dedup_points(points) == oracle_dedup(points)


@settings(max_examples=150, deadline=None)
@given(point_clouds())
def test_convex_hull_matches_oracle(points):
    assert convex_hull(points) == oracle_hull(points)


@settings(max_examples=100, deadline=None)
@given(point_clouds(), st.sampled_from([-0.5 * TOL, -1e-12, -0.0]))
def test_from_points_matches_oracle(points, tiny):
    # coordinates below tol in magnitude, negative ones too, snap to zero
    points = [(abs(x), abs(y)) for x, y in points] + [(tiny, 0.3), (0.4, tiny)]
    assert RateRegion.from_points(points).vertices == oracle_vertices(points)


def test_dedup_on_cell_boundaries():
    # a kept point exactly on a boundary absorbs neighbours on both sides
    # and is absorbed by nothing two cells away
    edge = 7 * CELL
    points = [(edge, 0.5), (edge - 0.9 * TOL, 0.5), (edge + 0.9 * TOL, 0.5), (edge + 2 * CELL, 0.5)]
    assert _dedup_points(points) == oracle_dedup(points) == [points[0], points[3]]


def test_dedup_and_hull_match_oracle_on_a_large_cloud():
    # 10^4 points: 100 clusters, half of them centred on cell corners, with
    # points at 0.5, 1 and 1.5 tol from their centre in each coordinate,
    # then 400 exact repeats, in random order
    rng = np.random.default_rng(35)
    centres = np.concatenate([rng.random((50, 2)) * 10.0, rng.integers(0, 10**8, (50, 2)) * CELL])
    steps = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5]) * TOL
    cloud = (centres[:, None, :] + steps[rng.integers(0, len(steps), (100, 96, 2))]).reshape(-1, 2)
    points = [tuple(p) for p in cloud.tolist()]
    points += [points[k] for k in rng.integers(0, len(points), 400).tolist()]
    points = [points[k] for k in rng.permutation(len(points)).tolist()]
    assert len(points) == 10**4 and len(set(points)) < len(points)
    assert _dedup_points(points) == oracle_dedup(points)
    assert convex_hull(points) == oracle_hull(points)


def test_dedup_chains_keep_first_occurrence():
    # b is within tol of a and c, but a and c are not within tol of each other
    a, b, c = (1.0, 1.0), (1.0 + 0.9 * TOL, 1.0), (1.0 + 1.8 * TOL, 1.0)
    assert _dedup_points([a, b, c]) == oracle_dedup([a, b, c]) == [a, c]
    assert _dedup_points([b, a, c]) == oracle_dedup([b, a, c]) == [b]


def test_convex_hull_rejects_non_finite_points():
    with pytest.raises(InvalidInputError):
        convex_hull([(0.0, 0.0), (math.inf, 1.0)])
    with pytest.raises(InvalidInputError):
        convex_hull([(0.0, 0.0), (math.nan, 1.0)])


# ---------------------------------------------------------------------------
# Regions against point lists built the old way.
# ---------------------------------------------------------------------------


def random_mac(d, seed):
    rng = np.random.default_rng(seed)
    alphabet = tuple(str(i) for i in range(d))
    states = {(a, b): random_density(rng, 2) for a in alphabet for b in alphabet}
    return MACCQChannel((alphabet, alphabet), states)


def random_bc(d, seed):
    rng = np.random.default_rng(seed)
    alphabet = tuple(str(i) for i in range(d))
    return BroadcastCQChannel(alphabet, (2, 2), {a: random_density(rng, 4) for a in alphabet})


MACS = {
    "adder": (adder_mac_channel, (8, 16)),
    "random-binary": (lambda: random_mac(2, 3), (8, 16)),
    "random-ternary": (lambda: random_mac(3, 4), (4, 6)),
}


# Chunks of one grid row, of three rows, and of the whole grid: the fold of
# each chunk's Pareto candidates must give the vertices of all corners at once.
CHUNK_ROWS = (1, 3, None)


def chunked(monkeypatch, rows, row_points, total_rows):
    monkeypatch.setattr(regions, "_CHUNK_POINTS", (rows or total_rows) * row_points)


@pytest.mark.parametrize("variant", ["conditional", "as-written"])
@pytest.mark.parametrize("name", sorted(MACS))
def test_mac_region_matches_oracle(monkeypatch, name, variant):
    make, grids = MACS[name]
    mac = make()
    for k in grids:
        grid = DistributionGrid(tuple(mac.alphabets[0]), k)
        want = oracle_vertices(oracle_mac_points(mac, grid, variant))
        row_points = DistributionGrid(tuple(mac.alphabets[1]), k).size
        for rows in CHUNK_ROWS:
            chunked(monkeypatch, rows, row_points, grid.size)
            assert mac_region(mac, grid, variant).vertices == want


BROADCASTS = {
    "product": lambda: product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.1)),
    "random-binary": lambda: random_bc(2, 9),
    "random-ternary": lambda: random_bc(3, 10),
}


@pytest.mark.parametrize("name", sorted(BROADCASTS))
def test_broadcast_region_matches_oracle(monkeypatch, name):
    bc = BROADCASTS[name]()
    for k in (8, 16):
        grid = DistributionGrid(bc.alphabet, k)
        want = oracle_vertices(oracle_broadcast_points(bc, grid))
        for rows in CHUNK_ROWS:
            chunked(monkeypatch, rows, 1, grid.size)
            assert broadcast_region(bc, grid).vertices == want


def decomposed(monkeypatch):
    """The number of matrices of each entropy regions asks for, in order."""
    sizes = []

    def spy(rho):
        sizes.append(int(np.prod(np.shape(rho)[:-2], dtype=int)))
        return von_neumann_entropy(rho)

    monkeypatch.setattr(regions, "von_neumann_entropy", spy)
    return sizes


@pytest.mark.parametrize("rows", CHUNK_ROWS)
def test_letter_and_slice_entropies_are_decomposed_once(monkeypatch, rows):
    # the 3 x 3 letter states, then the slices over each sender (15 grid
    # rows of 3), once; then one stack of average states per chunk
    mac = random_mac(3, 4)
    grid = DistributionGrid(tuple(mac.alphabets[0]), 4)
    g = grid.size
    chunked(monkeypatch, rows, g, g)
    sizes = decomposed(monkeypatch)
    mac_region(mac, grid)
    step = rows or g
    assert sizes == [9, 3 * g, 3 * g] + [min(step, g - lo) * g for lo in range(0, g, step)]
    # the broadcast: each marginal's letters once, then both chi stacks per chunk
    bc = random_bc(3, 10)
    grid = DistributionGrid(bc.alphabet, 6)
    g = grid.size
    chunked(monkeypatch, rows, 1, g)
    sizes = decomposed(monkeypatch)
    broadcast_region(bc, grid)
    step = rows or g
    assert sizes == [3, 3] + [min(step, g - lo) for lo in range(0, g, step) for _ in (1, 2)]
