"""The argument rule: operators reads every integer, real and numeric array
the library takes, and every refusal is a RelayError.

An integer is an int, a numpy integer or an integral float, never a bool; a
real is a finite int, float or numpy number, never a bool or a string; an
array holds bools or numbers, never strings, objects or ragged rows.  The
probe table holds malformed calls to public functions; the AST guard keeps
the bool checks of the rule in operators; the fuzz feeds each scalar
argument of the probed entry points a value of every malformed kind.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqrelay import operators
from cqrelay.channels import (
    BroadcastCQChannel,
    basis_state,
    depolarized_channel,
    holevo_chi,
    orthogonal_pure_channel,
    product_broadcast_channel,
)
from cqrelay.coding import build_square_root_decoder, decode_with_side_info, modular_sum_encode, sample_codebook
from cqrelay.errors import InvalidInputError, RelayError
from cqrelay.lemmas import gaussian_draws, sweep_lemma_checks
from cqrelay.operators import ProbabilityDistribution, checked_operator, compositions, partial_trace
from cqrelay.regions import RateRegion, convex_hull
from cqrelay.typicality import (
    TypicalSet,
    conditional_typical_projector,
    spectrum_projector_stats,
    threshold_for,
    typical_projector,
    verify_state_projector_bounds,
)

PACKAGE = pathlib.Path(operators.__file__).parent

DIST = ProbabilityDistribution.uniform(("0", "1"))
RHO = np.diag([0.7, 0.3])
CHANNEL = depolarized_channel(0.1)
BC = product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2))
CODEBOOK = sample_codebook(DIST, 2, 2, 2, seed=0)
SQUARE = RateRegion.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
DECODER = build_square_root_decoder(CODEBOOK, BC, 0.3)
WORD_STATE = BC.marginal(1).word_state(CODEBOOK.word(0, 0))

# malformed calls, each refused with InvalidInputError, not another
# exception and not a return
PROBES = {
    "threshold_for string alpha": lambda: threshold_for("0.5", 3, "fixed"),
    "TypicalSet string delta": lambda: TypicalSet(DIST, 3, "0.5"),
    "typical_projector string alpha": lambda: typical_projector(RHO, 3, "0.5"),
    "sweep string trials": lambda: sweep_lemma_checks(trials="3"),
    "codebook fractional size": lambda: sample_codebook(DIST, 3, 2.5, 2),
    "codebook string size": lambda: sample_codebook(DIST, 3, "2", 2),
    "codebook fractional seed": lambda: sample_codebook(DIST, 3, 2, 2, seed=1.5),
    "codebook bool size": lambda: sample_codebook(DIST, 3, True, 2),
    "checked_operator string": lambda: checked_operator("abc", "x"),
    "checked_operator ragged": lambda: checked_operator([[1, 0], [0]], "x"),
    "typical_projector string entry": lambda: typical_projector([[0.5, 0.0], [0.0, "0.5"]], 3, 0.5),
    "state bounds string state": lambda: verify_state_projector_bounds("x", 3, 0.5),
    "spectrum stats string eigenvalue": lambda: spectrum_projector_stats([0.5, "a"], 3, 0.1),
    "holevo_chi string distribution": lambda: holevo_chi(CHANNEL, "x"),
    "distribution string weights": lambda: ProbabilityDistribution(("a", "b"), np.array(["0.5", "0.5"])),
    "distribution short weights": lambda: ProbabilityDistribution(("a", "b"), [1.0]),
    "broadcast fractional dims": lambda: BroadcastCQChannel(("0",), (1.5, 2), {"0": np.eye(2) / 2}),
    "modular sum fractional message": lambda: modular_sum_encode(1.5, 1, 3),
    "compositions fractional n": lambda: compositions(2.5, 2),
    "partial_trace string dims": lambda: partial_trace(np.eye(4) / 4, ("2", "2"), 1),
    "convex_hull string points": lambda: convex_hull([("0.1", "0.2"), ("0.3", "0.0")]),
    "contains string rate": lambda: SQUARE.contains("0.1", 0.1),
    "basis_state index past dim": lambda: basis_state(5, 2),
    "decoder string alpha": lambda: build_square_root_decoder(CODEBOOK, BC, "0.3"),
    "power fractional n": lambda: DIST.power(2.5),
    "depolarized fractional dim": lambda: depolarized_channel(0.1, 2.5),
    "spectrum entropy string eigenvalue": lambda: operators.spectrum_entropy_bits(["x", 0.5]),
    "gaussian draws string dim": lambda: gaussian_draws(np.random.default_rng(0), "x"),
    "typical set sample string tries": lambda: TypicalSet(DIST, 3, 0.5).sample(np.random.default_rng(0), "x"),
    "conditional projector integer word": lambda: conditional_typical_projector(CHANNEL, 5, 0.5),
    "decode bool receiver": lambda: decode_with_side_info(DECODER, True, 0, WORD_STATE),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_each_malformed_probe_is_refused_with_an_invalid_input_error(probe):
    with pytest.raises(InvalidInputError):
        PROBES[probe]()


def test_integral_floats_read_as_their_integers():
    assert compositions(2.0, 2).tolist() == compositions(2, 2).tolist()
    assert len(DIST.power(np.float64(3.0))) == 8
    assert BroadcastCQChannel(("0",), (1.0, 2.0), {"0": np.eye(2) / 2}).dims == (1, 2)
    assert modular_sum_encode(np.int64(2), 1.0, 3.0) == 0
    assert decode_with_side_info(DECODER, 1.0, 0, WORD_STATE) == decode_with_side_info(DECODER, 1, 0, WORD_STATE) == 0


# ---------------------------------------------------------------------------
# The rule's home: no other module names bool in an isinstance check.
# ---------------------------------------------------------------------------


def _names_bool(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "bool") or (
        isinstance(node, ast.Attribute) and node.attr == "bool_"
    )


def test_only_operators_checks_for_bools():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "operators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            is_check = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            if is_check and len(node.args) == 2 and any(_names_bool(n) for n in ast.walk(node.args[1])):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


# ---------------------------------------------------------------------------
# Scalar fuzz: a return or a RelayError, whatever a scalar argument holds.
# ---------------------------------------------------------------------------

# entry point and argument -> the call with that argument replaced
SCALAR_SLOTS = {
    "threshold_for alpha": lambda v: threshold_for(v, 3, "fixed"),
    "threshold_for length": lambda v: threshold_for(0.5, v, "fixed"),
    "TypicalSet n": lambda v: TypicalSet(DIST, v, 0.5),
    "TypicalSet delta": lambda v: TypicalSet(DIST, 3, v),
    "typical_projector n": lambda v: typical_projector(RHO, v, 0.5),
    "typical_projector alpha": lambda v: typical_projector(RHO, 3, v),
    "sweep trials": lambda v: sweep_lemma_checks(trials=v, dims=(2,), which=("tender",)),
    "sweep seed": lambda v: sweep_lemma_checks(trials=2, seed=v, dims=(2,), which=("tender",)),
    "codebook n": lambda v: sample_codebook(DIST, v, 2, 2),
    "codebook m1_size": lambda v: sample_codebook(DIST, 3, v, 2),
    "codebook m2_size": lambda v: sample_codebook(DIST, 3, 2, v),
    "codebook delta_code": lambda v: sample_codebook(DIST, 3, 2, 2, delta_code=v),
    "codebook seed": lambda v: sample_codebook(DIST, 3, 2, 2, seed=v),
    "state bounds n": lambda v: verify_state_projector_bounds(RHO, v, 0.5),
    "state bounds alpha": lambda v: verify_state_projector_bounds(RHO, 3, v),
    "spectrum stats n": lambda v: spectrum_projector_stats([0.7, 0.3], v, 0.1),
    "spectrum stats tau": lambda v: spectrum_projector_stats([0.7, 0.3], 3, v),
    "broadcast dims": lambda v: BroadcastCQChannel(("0",), (v, 2), {"0": np.eye(2) / 2}),
    "modular sum m1": lambda v: modular_sum_encode(v, 1, 3),
    "modular sum size": lambda v: modular_sum_encode(1, 1, v),
    "compositions n": lambda v: compositions(v, 2),
    "compositions d": lambda v: compositions(3, v),
    "partial_trace dims": lambda v: partial_trace(np.eye(4) / 4, (v, 2), 1),
    "contains r1": lambda v: SQUARE.contains(v, 0.1),
    "contains tol": lambda v: SQUARE.contains(0.1, 0.1, v),
    "basis_state index": lambda v: basis_state(v, 2),
    "basis_state dim": lambda v: basis_state(0, v),
    "decoder alpha": lambda v: build_square_root_decoder(CODEBOOK, BC, v),
    "power n": lambda v: DIST.power(v),
    "depolarized p": lambda v: depolarized_channel(v, 2),
    "depolarized dim": lambda v: depolarized_channel(0.1, v),
    "decode receiver": lambda v: decode_with_side_info(DECODER, v, 0, WORD_STATE),
    "decode known index": lambda v: decode_with_side_info(DECODER, 1, v, WORD_STATE),
}

MALFORMED = st.one_of(
    st.text(max_size=3),
    st.sampled_from([True, False, np.True_, None, math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()),
)


@settings(max_examples=150, deadline=None)
@given(slot=st.sampled_from(sorted(SCALAR_SLOTS)), value=MALFORMED)
def test_a_malformed_scalar_argument_returns_or_raises_a_relay_error(slot, value):
    try:
        SCALAR_SLOTS[slot](value)
    except RelayError:
        pass
