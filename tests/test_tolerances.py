"""The tolerance model: five named tolerances decide every float comparison.

operators holds the non-geometric three (VALIDATION_ATOL, SUPPORT_REL_TOL,
REPORT_RTOL, the last read through _within), regions the geometric two
(_LENGTH_TOL, _TURN_TOL).  The AST guard keeps any other small float out of
the package; each threshold test puts inputs at half and at twice its
tolerance and checks that they fall on opposite sides.
"""

import ast
import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from cqrelay import coding, operators, regions, typicality
from cqrelay.errors import InvalidInputError
from cqrelay.operators import (
    REPORT_RTOL,
    SUPPORT_REL_TOL,
    VALIDATION_ATOL,
    ProbabilityDistribution,
    _within,
    checked_operator,
    pseudo_sqrt_inverse,
    spectrum_entropy_bits,
    support_projector,
)
from cqrelay.regions import _LENGTH_TOL, _TURN_TOL, RateRegion, convex_hull

PACKAGE = pathlib.Path(operators.__file__).parent

TOLERANCES = {
    ("operators", "VALIDATION_ATOL"),
    ("operators", "SUPPORT_REL_TOL"),
    ("operators", "REPORT_RTOL"),
    ("regions", "_LENGTH_TOL"),
    ("regions", "_TURN_TOL"),
}

# inputs at half and at twice a tolerance, and whether each is within it
SIDES = [(0.5, True), (2.0, False)]


def _small_float(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) <= 1e-6


def test_the_five_tolerances_are_the_only_small_floats_in_the_package():
    # a module constant bound to a small float literal (or its negation) is
    # one of the five; every other small float literal is stray
    constants, stray = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                value = stmt.value.operand if isinstance(stmt.value, ast.UnaryOp) else stmt.value
                if _small_float(value):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    constants.update((path.stem, getattr(t, "id", None)) for t in targets)
                    named.add(id(value))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _small_float(node) and id(node) not in named]
    assert constants == TOLERANCES
    assert stray == []


# ---------------------------------------------------------------------------
# VALIDATION_ATOL: absolute, on operators of scale 1 and probability sums.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factor,passes", SIDES)
@pytest.mark.parametrize(
    "make,kwargs",
    [
        (lambda e: [[0.5, e], [0.0, 0.5]], {"density": True}),  # Hermitian deviation
        (lambda e: [[1.0 + e, 0.0], [0.0, -e]], {"density": True}),  # negative eigenvalue
        (lambda e: [[0.5, 0.0], [0.0, 0.5 + e]], {"density": True}),  # trace
        (lambda e: [[1.0 + e, 0.0], [0.0, 0.0]], {"sub_unital": True}),  # above the identity
    ],
    ids=["hermitian", "positive", "trace", "sub-unital"],
)
def test_operator_checks_allow_the_validation_tolerance(make, kwargs, factor, passes):
    mat = np.array(make(factor * VALIDATION_ATOL))
    if passes:
        checked_operator(mat, "op", **kwargs)
    else:
        with pytest.raises(InvalidInputError):
            checked_operator(mat, "op", **kwargs)


@pytest.mark.parametrize("factor,passes", SIDES)
def test_probability_sums_allow_the_validation_tolerance(factor, passes):
    weights = [0.5, 0.5 + factor * VALIDATION_ATOL]
    if passes:
        ProbabilityDistribution(("a", "b"), weights)
    else:
        with pytest.raises(InvalidInputError, match="sum to"):
            ProbabilityDistribution(("a", "b"), weights)


# ---------------------------------------------------------------------------
# SUPPORT_REL_TOL: relative to the largest value, whatever its scale.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("factor,dropped", SIDES)
def test_the_support_cut_is_relative_to_the_largest_eigenvalue(scale, factor, dropped):
    small = factor * SUPPORT_REL_TOL * scale
    mat = np.diag([scale, small])
    assert np.array_equal(support_projector(mat), np.diag([1.0, 0.0 if dropped else 1.0]))
    assert (pseudo_sqrt_inverse(mat)[1, 1] == 0.0) == dropped
    cleaned = typicality._clean_eigenvalues(np.array([[small, scale]]))
    assert cleaned.tolist() == [[0.0 if dropped else small, scale]]


@pytest.mark.parametrize("factor,dropped", SIDES)
def test_entropy_drops_eigenvalues_off_the_support(factor, dropped):
    h = spectrum_entropy_bits(np.array([1.0, factor * SUPPORT_REL_TOL]))
    assert (h == 0.0) == dropped


@pytest.mark.parametrize("factor,diagonal", SIDES)
def test_a_letter_basis_counts_as_the_projector_basis_within_the_support_tolerance(factor, diagonal):
    # a rotation by theta moves the overlap |u† u_a| off the identity
    # pattern by sin(theta) and 1 - cos(theta); theta is the larger
    theta = factor * SUPPORT_REL_TOL
    rotation = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    letters = {"0": (np.array([0.25, 0.75]), rotation)}
    orders = coding._diagonal_orders(letters, SimpleNamespace(bases=[np.eye(2)]))
    assert (orders is not None) == diagonal


# ---------------------------------------------------------------------------
# REPORT_RTOL: a <= b + REPORT_RTOL * max(1, |a|, |b|), through _within.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bound", [0.0, 1.0, -1.0, 1e6, -1e6])
@pytest.mark.parametrize("factor,within", SIDES)
def test_within_allows_the_report_tolerance_relative_to_the_larger_magnitude(bound, factor, within):
    excess = factor * REPORT_RTOL * max(1.0, abs(bound))
    assert _within(bound + excess, bound) is within
    assert _within(bound - excess, bound) is True


@pytest.mark.parametrize("factor,snapped", SIDES)
def test_a_message_exponent_within_the_report_tolerance_of_an_integer_is_that_integer(factor, snapped):
    # n (chi - 2 eps) a hair below 1 still sizes the set at 2 = 2^1
    chi = (1.0 - factor * REPORT_RTOL) / 4
    assert coding._message_size(4, chi, 0.0, 16, "message set") == (2 if snapped else 1)


# ---------------------------------------------------------------------------
# _LENGTH_TOL: absolute, on rates of scale 1.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factor,within", SIDES)
def test_rate_points_snap_and_merge_within_the_length_tolerance(factor, within):
    gap = factor * _LENGTH_TOL
    assert (regions._rate_points([(gap, 1.0)])[0, 0] == 0.0) == within
    assert len(regions._dedup_points([(1.0, 1.0), (1.0 + gap, 1.0 + gap)])) == (1 if within else 2)


@pytest.mark.parametrize("factor,inside", SIDES)
def test_a_halfplane_clip_keeps_a_vertex_within_the_length_tolerance(factor, inside):
    vertex = [(1.0 + factor * _LENGTH_TOL, 0.5)]
    assert regions._clip_by_halfplane(vertex, (1.0, 0.0, 1.0)) == (vertex if inside else [])


@pytest.mark.parametrize("factor,inside", SIDES)
def test_containment_defaults_to_twice_the_length_tolerance(factor, inside):
    square = RateRegion.from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    assert square.contains(1.0 + factor * 2 * _LENGTH_TOL, 0.5) == inside


# ---------------------------------------------------------------------------
# _TURN_TOL: relative, on the sine of the turn, so the hull is scale-free.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("factor,popped", SIDES)
def test_the_hull_keeps_a_turn_above_the_turn_tolerance_at_any_scale(scale, factor, popped):
    # the turn at (s, 0) towards (2s, y) has sine y / (2s), to first order
    hull = convex_hull([(0.0, 0.0), (scale, 0.0), (2.0 * scale, 2.0 * scale * factor * _TURN_TOL)])
    assert len(hull) == (2 if popped else 3) and ((scale, 0.0) in hull) != popped
