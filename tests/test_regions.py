import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqrelay import operators, regions
from cqrelay.channels import (
    BroadcastCQChannel,
    MACCQChannel,
    adder_mac_channel,
    constant_channel,
    depolarized_channel,
    orthogonal_pure_channel,
    product_broadcast_channel,
)
from cqrelay.errors import InvalidInputError, ResourceLimitError
from cqrelay.lemmas import random_density
from cqrelay.regions import (
    _LENGTH_TOL,
    _TURN_TOL,
    DistributionGrid,
    RatePair,
    RateRegion,
    _union_candidates,
    broadcast_region,
    convex_hull,
    intersect_regions,
    mac_region,
)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def vertices_close(region, expected, tol=1e-9):
    got = [(v.r1, v.r2) for v in region.vertices]
    if len(got) != len(expected):
        return False
    return all(
        abs(g[0] - e[0]) <= tol and abs(g[1] - e[1]) <= tol
        for g, e in zip(got, expected)
    )


# ---------------------------------------------------------------------------
# hulls and polygons
# ---------------------------------------------------------------------------


def test_convex_hull_square_with_interior_points():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.25, 0.75)]
    hull = convex_hull(pts)
    assert sorted(hull) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_convex_hull_counterclockwise_orientation():
    hull = convex_hull([(0, 0), (2, 0), (2, 1), (0, 1), (1, 0.5)])
    area2 = 0.0
    m = len(hull)
    for i in range(m):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % m]
        area2 += x0 * y1 - x1 * y0
    assert area2 > 0.0  # counterclockwise signed area is positive


def test_convex_hull_degenerate_inputs():
    assert convex_hull([(0.3, 0.4)]) == [(0.3, 0.4)]
    assert convex_hull([(0, 0), (0, 0), (0, 0)]) == [(0.0, 0.0)]
    # collinear points collapse to the two extremes
    assert convex_hull([(0, 0), (1, 1), (2, 2), (0.5, 0.5)]) == [(0.0, 0.0), (2.0, 2.0)]


def test_rate_region_keeps_the_origin_behind_a_point_within_tolerance():
    # (0, 1e-8) is within the dedup tolerance of the origin and comes first
    region = RateRegion.from_points([(0, 1e-8), (0, 0), (1, 0), (2, 0)])
    assert region.vertices == (RatePair(0.0, 0.0), RatePair(2.0, 0.0))
    assert region.contains(0.0, 0.0)


def test_rate_region_from_points_orders_vertices():
    region = RateRegion.from_points([(1, 1), (0, 0), (1, 0), (0, 1)])
    assert region.vertices[0] == RatePair(0.0, 0.0)
    assert vertices_close(region, [(0, 0), (1, 0), (1, 1), (0, 1)])


def test_rate_region_halfplanes_unit_normals_and_contain_vertices():
    region = RateRegion.from_points([(0, 0), (2, 0), (2, 1), (0, 3)])
    for a, b, c in region.halfplanes:
        assert math.hypot(a, b) == pytest.approx(1.0, abs=1e-12)
        for v in region.vertices:
            assert a * v.r1 + b * v.r2 <= c + 1e-9


def test_rate_region_contains():
    region = RateRegion.from_points([(0, 0), (1, 0), (0, 1)])
    assert region.contains(0.2, 0.2)
    assert region.contains(0.5, 0.5)  # boundary
    assert not region.contains(0.6, 0.6)
    assert not region.contains(1.1, 0.0)


def test_rate_region_rejects_negative_rates():
    with pytest.raises(InvalidInputError):
        RateRegion.from_points([(-0.1, 0.2)])


def test_rate_region_single_point_and_segment():
    point = RateRegion.from_points([(0.0, 0.0)])
    assert point.vertices == (RatePair(0.0, 0.0),)
    assert point.contains(0.0, 0.0)
    assert not point.contains(0.1, 0.0)
    seg = RateRegion.from_points([(0, 0), (1, 0), (0.5, 0)])
    assert vertices_close(seg, [(0, 0), (1, 0)])
    assert seg.contains(0.7, 0.0)
    assert not seg.contains(0.7, 0.1)


def test_max_sum_rate():
    region = RateRegion.from_points([(0, 0), (1, 0), (1, 0.5), (0.5, 1), (0, 1)])
    assert region.max_sum_rate() == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------


def clip_polygon_oracle(poly, planes):
    # independent Sutherland-Hodgman pass used as the clipping oracle
    for a, b, c in planes:
        out = []
        m = len(poly)
        for i in range(m):
            sx, sy = poly[i]
            ex, ey = poly[(i + 1) % m]
            inside_s = a * sx + b * sy <= c + 1e-12
            inside_e = a * ex + b * ey <= c + 1e-12
            if inside_s:
                out.append((sx, sy))
            if inside_s != inside_e:
                t = (a * sx + b * sy - c) / ((a * sx + b * sy) - (a * ex + b * ey))
                out.append((sx + t * (ex - sx), sy + t * (ey - sy)))
        poly = out
        if not poly:
            return []
    return poly


def test_intersection_with_self_is_identity():
    region = RateRegion.from_points([(0, 0), (1, 0), (1, 0.5), (0.5, 1), (0, 1)])
    again = intersect_regions(region, region)
    assert vertices_close(again, [(v.r1, v.r2) for v in region.vertices], tol=1e-9)


def test_intersection_square_and_pentagon_matches_oracle():
    square = RateRegion.from_points([(0, 0), (0.75, 0), (0.75, 0.75), (0, 0.75)])
    pent = RateRegion.from_points([(0, 0), (1, 0), (1, 0.5), (0.5, 1), (0, 1)])
    got = intersect_regions(pent, square)
    oracle = clip_polygon_oracle([(v.r1, v.r2) for v in pent.vertices], square.halfplanes)
    expected = RateRegion.from_points(oracle)
    assert vertices_close(got, [(v.r1, v.r2) for v in expected.vertices], tol=1e-8)


def test_intersection_is_commutative_and_contained():
    a = RateRegion.from_points([(0, 0), (1, 0), (1, 0.6), (0, 0.6)])
    b = RateRegion.from_points([(0, 0), (0.8, 0), (0.4, 0.9), (0, 0.9)])
    ab = intersect_regions(a, b)
    ba = intersect_regions(b, a)
    for v in ab.vertices:
        assert a.contains(v.r1, v.r2, tol=1e-9)
        assert b.contains(v.r1, v.r2, tol=1e-9)
        assert ba.contains(v.r1, v.r2, tol=1e-8)
    for v in ba.vertices:
        assert ab.contains(v.r1, v.r2, tol=1e-8)


# regions through the origin, from up to six rate points with coordinates in
# [0, 4]; repeats, zeros and shared coordinates are frequent
rate = st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, 0.5, 1.0, 1e-9]))
origin_regions = st.lists(st.tuples(rate, rate), min_size=1, max_size=6).map(
    lambda points: RateRegion.from_points([(0.0, 0.0), *points])
)


@settings(max_examples=100, deadline=None)
@given(origin_regions, origin_regions)
def test_an_intersection_lies_inside_both_regions(a, b):
    # from_points snaps coordinates below _LENGTH_TOL to 0, so a vertex may
    # move by that much in each coordinate (a = hull{(0, 0), (1, 1e-8)} and
    # the unit triangle give a vertex 1e-8 outside a); contains' default
    # covers that move
    both = intersect_regions(a, b)
    assert both.contains(0.0, 0.0)
    for v in both.vertices:
        assert a.contains(v.r1, v.r2) and b.contains(v.r1, v.r2)


def test_intersection_disjoint_interiors_gives_origin():
    horizontal = RateRegion.from_points([(0, 0), (1, 0)])
    vertical = RateRegion.from_points([(0, 0), (0, 1)])
    got = intersect_regions(horizontal, vertical)
    assert got.vertices == (RatePair(0.0, 0.0),)


# ---------------------------------------------------------------------------
# unions of downward-closed sets: the hull reads only the Pareto candidates
# ---------------------------------------------------------------------------


def pentagon_corners(a, b, c):
    aa, bb = min(a, c), min(b, c)
    return [(bb, 0.0), (0.0, aa), (bb, min(aa, c - bb)), (min(bb, c - aa), aa)]


def rectangle_corners(x, y):
    return [(x, 0.0), (0.0, y), (x, y)]


# pentagons and rectangles with sides in [0, 4]; shared sides, zeros, near
# repeats (half the dedup tolerance apart) and exact repeats are frequent
side = st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, 0.5, 1.0, 1.0 + 0.5 * _LENGTH_TOL]))
shape_corners = st.one_of(
    st.tuples(side, side, side).map(lambda abc: pentagon_corners(*abc)),
    st.tuples(side, side).map(lambda xy: rectangle_corners(*xy)),
)


@st.composite
def downward_unions(draw):
    # the origin comes first, as mac_region and broadcast_region put it: a
    # point within the dedup tolerance above it that came earlier would
    # absorb it, with or without the step
    points = [(0.0, 0.0)]
    for corners in draw(st.lists(shape_corners, min_size=1, max_size=12)):
        points.extend(corners)
    for k in draw(st.lists(st.integers(0, len(points) - 1), max_size=6)):
        points.insert(draw(st.integers(1, len(points))), points[k])
    return points[:1] + draw(st.permutations(points[1:]))


@settings(max_examples=100, deadline=None)
@given(downward_unions())
def test_union_candidates_keep_the_hull(points):
    full = RateRegion.from_points(points)
    kept = RateRegion.from_points(_union_candidates(points))
    # the dedup can pick a different survivor among points within its
    # tolerance, and a survivor moved by that much can bend an edge: the
    # x-axis point (1, 0) absorbing (1 + 5e-9, 0) leaves (1 + 5e-9, 1) a
    # vertex of the hull of every point.  So the step loses nothing of that
    # hull at the dedup resolution, contains' default ...
    assert all(kept.contains(v.r1, v.r2) for v in full.vertices)
    # ... and where neither tolerance decides anything, the vertex lists are
    # the same
    if no_tolerance_decides(points):
        assert kept.vertices == full.vertices


def no_tolerance_decides(points):
    """No two points within 2 length tolerances of each other in both
    coordinates, and no three whose turn (the hull's sine of the angle at
    o between a - o and b - o) is nonzero but within 2 turn tolerances."""
    pts = np.unique(np.round(np.array(points), 12), axis=0)
    gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=-1)
    np.fill_diagonal(gaps, np.inf)
    d = pts[None, :, :] - pts[:, None, :]  # d[o, a] = a - o
    cross = np.abs(d[:, :, None, 0] * d[:, None, :, 1] - d[:, :, None, 1] * d[:, None, :, 0])
    lengths = np.hypot(d[..., 0], d[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = cross / (lengths[:, :, None] * lengths[:, None, :])
    return gaps.min() > 2.0 * _LENGTH_TOL and not ((turns > 0.0) & (turns <= 2.0 * _TURN_TOL)).any()


def test_the_hull_of_every_point_and_of_the_union_candidates_keep_a_thin_corner():
    # rectangles [0, 1] x [0, 1e-5] and [0, 1 + 5e-9] x [0, 1e-7]: in the
    # hull of every corner, (1, 0) absorbs (1 + 5e-9, 0), and the turn at the
    # true corner (1, 1e-5) before (1, 0) has a cross product of 5e-14 but a
    # sine of 0.05, so the turn rule keeps it; a rule on raw cross products
    # (<= 1e-12) popped it and cut the region by 1e-5
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1e-5), (1.0, 1e-5), (1.000000005, 0.0), (0.0, 1e-7), (1.000000005, 1e-7)]
    assert (1.0, 1e-5) in RateRegion.from_points(points).vertices
    assert RateRegion.from_points(_union_candidates(points)).vertices == (
        (0.0, 0.0), (1.000000005, 0.0), (1.000000005, 1e-7), (1.0, 1e-5), (0.0, 1e-5)
    )


def test_a_union_of_area_1e_12_keeps_its_four_corners():
    # the sines of its turns are far from the turn tolerance, though its
    # cross products are below 1e-12: a rule on those collapsed the region
    # to the segment (0, 0)-(1e-5, 5.96e-8)
    points = [(0.0, 0.0), (1e-5, 0.0), (1e-5, 5.96e-8), (0.0, 5.96e-8), (0.0, 1.19e-7)]
    assert RateRegion.from_points(points).vertices == ((0.0, 0.0), (1e-5, 0.0), (1e-5, 5.96e-8), (0.0, 1.19e-7))


def test_union_candidates_are_the_origin_axis_extremes_and_front_in_input_order():
    points = [(1.0, 0.0), (0.0, 0.0), (2.0, 1.0), (0.0, 3.0), (2.0, 0.0), (1.0, 3.0), (0.5, 0.5), (2.0, 1.0), (0.0, 0.0)]
    assert _union_candidates(points).tolist() == [[0.0, 0.0], [2.0, 1.0], [0.0, 3.0], [2.0, 0.0], [1.0, 3.0]]


@pytest.mark.parametrize(
    "bad",
    [(0.5, math.nan), (math.inf, 0.0), (0.5, -1.0), (-1e-3, 0.5)],
)
def test_union_candidates_check_every_corner(bad):
    # each bad corner is dominated by (2, 2), so only a check made before the
    # front is taken can see it
    with pytest.raises(InvalidInputError):
        _union_candidates([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0), bad])


def test_union_candidates_snap_as_from_points_does():
    tiny = 0.5 * _LENGTH_TOL
    got = _union_candidates([(0.0, 0.0), (1.0, -tiny), (1.0, 0.5), (tiny, 0.5)])
    assert got.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]]


def test_a_fine_broadcast_grid_keeps_the_dominating_corner():
    # at grid 65,536 several grid points give chi1 within the dedup tolerance
    # of its maximum 1; a hull of every corner kept the first of them, about
    # 6e-9 short, and its top edge tilted by 3e-9
    bc = product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.1))
    region = broadcast_region(bc, DistributionGrid(bc.alphabet, 65536))
    origin, right, top_right, top_left = region.vertices
    assert right == (1.0, 0.0)
    assert top_right.r1 == 1.0 and top_right.r2 == top_left.r2 and top_left.r1 == 0.0


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_simplex_lattice_count_and_sums():
    grid = DistributionGrid(("a", "b", "c"), 4)
    pts = [tuple(p) for p in (grid.weight_matrix() * 4).tolist()]
    assert len(pts) == len(grid) == math.comb(4 + 2, 2)
    assert all(sum(p) == 4 for p in pts)
    assert len(set(pts)) == len(pts)
    assert pts == sorted(pts)


def test_distribution_grid():
    grid = DistributionGrid(("a", "b"), 10)
    assert len(grid) == 11
    mat = grid.weight_matrix()
    assert mat.shape == (11, 2)
    assert np.allclose(mat.sum(axis=1), 1.0)
    with pytest.raises(InvalidInputError):
        DistributionGrid(("a",), 0)


# ---------------------------------------------------------------------------
# MAC regions
# ---------------------------------------------------------------------------


def test_adder_mac_region_conditional():
    region = mac_region(adder_mac_channel(), DistributionGrid(("0", "1"), 32))
    assert region.max_sum_rate() == pytest.approx(1.5, abs=1e-9)
    expected = [(0, 0), (1, 0), (1, 0.5), (0.5, 1), (0, 1)]
    assert vertices_close(region, expected, tol=1e-9)
    # the second sum-rate corner requires time sharing, not a grid point
    assert region.contains(0.75, 0.75)


def test_adder_mac_region_as_written_variant():
    region = mac_region(
        adder_mac_channel(), DistributionGrid(("0", "1"), 32), variant="as-written"
    )
    assert region.contains(1.0, 0.0)
    assert region.contains(0.0, 1.0)
    assert region.max_sum_rate() <= 1.5 + 1e-9


def test_mac_region_variants_agree_on_product_channels():
    # when the output factorizes across senders both scoring rules reduce
    # to single-sender Holevo quantities
    rng = np.random.default_rng(71)

    def rand_state(dim):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        return m / np.trace(m).real

    w1 = {a: rand_state(2) for a in ("0", "1")}
    w2 = {b: rand_state(2) for b in ("0", "1")}
    states = {(a, b): np.kron(w1[a], w2[b]) for a in w1 for b in w2}
    mac = MACCQChannel((("0", "1"), ("0", "1")), states)
    grid = DistributionGrid(("0", "1"), 12)
    ra = mac_region(mac, grid, variant="conditional")
    rb = mac_region(mac, grid, variant="as-written")
    assert vertices_close(rb, [(v.r1, v.r2) for v in ra.vertices], tol=1e-9)


def test_mac_region_constant_channel_is_origin():
    state = np.eye(2) / 2
    mac = MACCQChannel(
        (("0", "1"), ("0", "1")),
        {(a, b): state for a in ("0", "1") for b in ("0", "1")},
    )
    region = mac_region(mac, DistributionGrid(("0", "1"), 8))
    assert region.vertices == (RatePair(0.0, 0.0),)


def test_mac_region_grid_refinement_is_monotone():
    mac = adder_mac_channel()
    coarse = mac_region(mac, DistributionGrid(("0", "1"), 4))
    fine = mac_region(mac, DistributionGrid(("0", "1"), 16))
    for v in coarse.vertices:
        assert fine.contains(v.r1, v.r2, tol=1e-9)


def test_mac_region_validation():
    mac = adder_mac_channel()
    with pytest.raises(InvalidInputError):
        mac_region(mac, DistributionGrid(("x", "y"), 8))
    with pytest.raises(InvalidInputError):
        mac_region(mac, DistributionGrid(("0", "1"), 8), variant="mystery")


# ---------------------------------------------------------------------------
# broadcast regions
# ---------------------------------------------------------------------------


def test_broadcast_region_noiseless_is_unit_square():
    bc = product_broadcast_channel(orthogonal_pure_channel(), orthogonal_pure_channel())
    region = broadcast_region(bc, DistributionGrid(("0", "1"), 16))
    assert vertices_close(region, [(0, 0), (1, 0), (1, 1), (0, 1)], tol=1e-9)


def test_broadcast_region_depolarized_corner():
    bc = product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.2))
    region = broadcast_region(bc, DistributionGrid(("0", "1"), 64))
    corner = 1.0 - h2(0.1)
    assert region.contains(1.0 - 1e-9, corner - 1e-9)
    assert any(
        abs(v.r1 - 1.0) <= 1e-6 and abs(v.r2 - corner) <= 1e-6 for v in region.vertices
    )
    # nothing beats the simultaneous optimum for this pair
    assert not region.contains(1.0, corner + 1e-3)


def test_broadcast_region_one_sided_constant():
    bc = product_broadcast_channel(orthogonal_pure_channel(), constant_channel(2, 2))
    region = broadcast_region(bc, DistributionGrid(("0", "1"), 16))
    assert vertices_close(region, [(0, 0), (1, 0)], tol=1e-9)


def test_broadcast_region_symmetric_channel():
    bc = product_broadcast_channel(depolarized_channel(0.3), depolarized_channel(0.3))
    region = broadcast_region(bc, DistributionGrid(("0", "1"), 16))
    for v in region.vertices:
        assert region.contains(v.r2, v.r1, tol=1e-9)


def test_broadcast_region_validation():
    bc = product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.2))
    with pytest.raises(InvalidInputError):
        broadcast_region(bc, DistributionGrid(("a", "b"), 8))


def test_grid_searches_refuse_oversized_state_stacks():
    # a streamed grid holds its weights whole: the 10^10 + 1 rows of a
    # binary grid are priced at 596 GiB, 32 bytes a weight as they are built
    ch = orthogonal_pure_channel()
    bc = product_broadcast_channel(ch, ch)
    with pytest.raises(ResourceLimitError, match=r"^broadcast region grid of 10000000001 points needs about 596 GiB"):
        broadcast_region(bc, DistributionGrid(bc.alphabet, 10**10))


def _real_and_complex_twins(kind):
    # the same shape twice: random complex densities, and their real parts
    # (also densities); only the second is stored as float64
    rng = np.random.default_rng(29)
    alphabet = ("0", "1")
    if kind == "mac":
        states = {(a, b): random_density(rng, 3) for a in alphabet for b in alphabet}
        return [MACCQChannel((alphabet, alphabet), {k: f(v) for k, v in states.items()}) for f in (np.real, np.asarray)]
    states = {a: random_density(rng, 4) for a in alphabet}
    return [BroadcastCQChannel(alphabet, (2, 2), {k: f(v) for k, v in states.items()}) for f in (np.real, np.asarray)]


def _grid_search(kind, channel, k):
    if kind == "mac":
        return mac_region(channel, DistributionGrid(channel.alphabets[0], k))
    return broadcast_region(channel, DistributionGrid(channel.alphabet, k))


@pytest.mark.parametrize("kind", ["mac", "broadcast"])
def test_grid_stacks_are_priced_at_their_dtype(monkeypatch, kind):
    real, cplx = _real_and_complex_twins(kind)
    # grid 15 is 256 MAC points of 3x3 states, grid 63 is 64 simplex points
    # of 2x2 marginal states; a budget at the float64 twin's largest price
    # admits it, and the complex128 twin's chunk, whose stacks take twice
    # the bytes an entry, is priced above it
    k = 15 if kind == "mac" else 63
    prices = []
    check = regions._require_bytes
    monkeypatch.setattr(regions, "_require_bytes", lambda nbytes, what: (prices.append(nbytes), check(nbytes, what)))
    _grid_search(kind, real, k)
    monkeypatch.setattr(operators, "MEMORY_BUDGET", max(prices))
    _grid_search(kind, real, k)
    with pytest.raises(ResourceLimitError):
        _grid_search(kind, cplx, k)


@pytest.mark.parametrize("resolution", [2.5, True, "3", None])
def test_grid_resolution_must_be_an_integer(resolution):
    with pytest.raises(InvalidInputError, match="grid resolution must be an integer"):
        DistributionGrid(("0", "1"), resolution)


def test_grid_resolution_takes_an_integral_float():
    # the library's one integer rule: an integral float reads as its integer
    grid = DistributionGrid(("0", "1"), 3.0)
    assert type(grid.resolution) is int and grid.resolution == 3
    assert np.array_equal(grid.weight_matrix(), DistributionGrid(("0", "1"), 3).weight_matrix())


def test_grid_resolution_beyond_an_index_is_refused():
    # one letter has a one-point grid however fine, but its count still
    # has to fit an index-sized integer
    with pytest.raises(InvalidInputError, match="exceeds"):
        DistributionGrid(("0",), 10**20)
    assert DistributionGrid(("0",), 2**62).weight_matrix().tolist() == [[1.0]]
    assert DistributionGrid(("0", "1"), 2**63 - 1).size == 2**63  # beyond len()


def test_grid_resolution_accepts_numpy_integers():
    grid = DistributionGrid(("0", "1", "2"), np.int64(4))
    assert len(grid) == 15
    assert grid.weight_matrix().shape == (15, 3)
