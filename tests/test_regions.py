import math

import numpy as np
import pytest

from cqrelay import channels, regions
from cqrelay.channels import (
    CQChannel,
    MACCQChannel,
    adder_mac_channel,
    constant_channel,
    depolarized_channel,
    orthogonal_pure_channel,
    overlap_pair_channel,
    product_broadcast_channel,
)
from cqrelay.errors import InvalidInputError, ResourceLimitError
from cqrelay.lemmas import random_density
from cqrelay.operators import ProbabilityDistribution
from cqrelay.regions import (
    DistributionGrid,
    RatePair,
    RateRegion,
    broadcast_region,
    convex_hull,
    intersect_regions,
    mac_region,
    optimize_chi,
    weighted_boundary_point,
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


def test_intersection_disjoint_interiors_gives_origin():
    horizontal = RateRegion.from_points([(0, 0), (1, 0)])
    vertical = RateRegion.from_points([(0, 0), (0, 1)])
    got = intersect_regions(horizontal, vertical)
    assert got.vertices == (RatePair(0.0, 0.0),)


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
    dists = list(grid.distributions())
    assert len(dists) == 11
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


def test_mac_region_asymmetric_grids():
    mac = adder_mac_channel()
    region = mac_region(
        mac,
        DistributionGrid(("0", "1"), 8),
        grid2=DistributionGrid(("0", "1"), 6),
    )
    assert region.contains(1.0, 0.0)


def test_mac_region_validation():
    mac = adder_mac_channel()
    with pytest.raises(InvalidInputError):
        mac_region(mac, DistributionGrid(("x", "y"), 8))
    with pytest.raises(InvalidInputError):
        mac_region(mac, DistributionGrid(("0", "1"), 8), variant="mystery")
    with pytest.raises(InvalidInputError):
        mac_region(mac, DistributionGrid(("0", "1"), 8), grid2=DistributionGrid(("x",), 4))


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


# ---------------------------------------------------------------------------
# single-channel optimization and boundary points
# ---------------------------------------------------------------------------


def test_optimize_chi_orthogonal():
    ch = orthogonal_pure_channel()
    dist, value = optimize_chi(ch, DistributionGrid(ch.alphabet, 16))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert dist.weight("0") == pytest.approx(0.5, abs=1e-6)


def test_optimize_chi_constant_channel():
    ch = constant_channel(2, 2)
    _, value = optimize_chi(ch, DistributionGrid(ch.alphabet, 8))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_optimize_chi_beats_dense_grid():
    from cqrelay.channels import holevo_chi

    ch = overlap_pair_channel()
    grid = DistributionGrid(ch.alphabet, 32)
    _, value = optimize_chi(ch, grid)
    dense_best = max(
        holevo_chi(ch, ProbabilityDistribution(ch.alphabet, np.array([k / 1000, 1 - k / 1000])))
        for k in range(1001)
    )
    assert value >= dense_best - 1e-6


def test_optimize_chi_decomposes_each_letter_state_once(monkeypatch):
    # the letter-state entropies do not depend on the weights, so a search
    # reads them once per call: one entropy call per chi evaluation (its
    # averaged states) plus one per letter; each evaluation equals the
    # plain chi bit for bit
    rng = np.random.default_rng(3)
    ch = CQChannel(("a", "b", "c"), {k: random_density(rng, 3) for k in "abc"})
    entropy_calls, evaluations = [], []
    real_entropy, real_chi = channels.von_neumann_entropy, regions._chi

    def entropy(states):
        entropy_calls.append(states)
        return real_entropy(states)

    def chi(channel, weights, *letter_entropies):
        value = real_chi(channel, weights, *letter_entropies)
        evaluations.append((np.array(weights), value))
        return value

    monkeypatch.setattr(channels, "von_neumann_entropy", entropy)
    monkeypatch.setattr(regions, "von_neumann_entropy", entropy)
    monkeypatch.setattr(regions, "_chi", chi)
    optimize_chi(ch, DistributionGrid(ch.alphabet, 16), refine_steps=50)
    assert len(evaluations) == 2 + 2 * 50
    assert len(entropy_calls) == len(evaluations) + len(ch.alphabet)
    monkeypatch.undo()
    for weights, value in evaluations:
        assert np.array_equal(value, channels._chi(ch, weights))


def test_grid_searches_refuse_oversized_state_stacks():
    # a binary grid of 10^7 points holds a 640 MB (G, 2, 2) stack
    ch = orthogonal_pure_channel()
    with pytest.raises(ResourceLimitError):
        optimize_chi(ch, DistributionGrid(ch.alphabet, 10**7))
    bc = product_broadcast_channel(ch, ch)
    with pytest.raises(ResourceLimitError):
        broadcast_region(bc, DistributionGrid(bc.alphabet, 10**7))


def test_weighted_boundary_point():
    square = RateRegion.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert weighted_boundary_point(square, 0.0).r1 == pytest.approx(1.0)
    assert weighted_boundary_point(square, 100.0).r2 == pytest.approx(1.0)
    adder = mac_region(adder_mac_channel(), DistributionGrid(("0", "1"), 16))
    pt = weighted_boundary_point(adder, 1.0)
    assert pt.r1 + pt.r2 == pytest.approx(1.5, abs=1e-9)
    # a region factory is not a region
    with pytest.raises(InvalidInputError):
        weighted_boundary_point(lambda: square, 0.0)
    with pytest.raises(InvalidInputError):
        weighted_boundary_point(square, -0.5)
    with pytest.raises(InvalidInputError):
        weighted_boundary_point("nope", 1.0)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_weighted_boundary_point_refuses_a_weight_that_is_not_finite(mu):
    square = RateRegion.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(InvalidInputError, match="finite and nonnegative"):
        weighted_boundary_point(square, mu)


@pytest.mark.parametrize("resolution", [2.5, True, 3.0, "3", None])
def test_grid_resolution_must_be_an_integer(resolution):
    with pytest.raises(InvalidInputError, match="grid resolution must be an integer"):
        DistributionGrid(("0", "1"), resolution)


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
