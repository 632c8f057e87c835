import math
import tracemalloc

import numpy as np
import pytest

from cqrelay import lemmas
from cqrelay.errors import InvalidInputError
from cqrelay.lemmas import (
    check_hayashi_nagaoka,
    check_measurement_on_close_states,
    check_tender_operator,
    random_density,
    random_positive,
    random_subunital_positive,
    sweep_lemma_checks,
)
from cqrelay.operators import CheckedOperator, _checked_spectrum, pseudo_sqrt_inverse


def test_close_states_equal_inputs():
    # sigma = rho makes both sides equal up to the trace-norm term, which
    # vanishes, so the slack is exactly zero
    rho = np.diag([0.7, 0.3])
    res = check_measurement_on_close_states(rho, rho, np.eye(2))
    assert res.holds
    assert res.slack == pytest.approx(0.0, abs=1e-12)


def test_close_states_identity_effect():
    # Pi = id: lhs = 1 - ||sigma - rho||_1 <= 1 = rhs always
    rng = np.random.default_rng(1)
    sigma, rho = random_density(rng, 3), random_density(rng, 3)
    res = check_measurement_on_close_states(sigma, rho, np.eye(3))
    assert res.holds
    assert res.rhs == pytest.approx(1.0, abs=1e-12)


def test_close_states_orthogonal_extreme():
    # orthogonal pure states with the effect picking rho: the trace norm
    # term equals 2 and absorbs the full measurement difference
    sigma = np.diag([1.0, 0.0])
    rho = np.diag([0.0, 1.0])
    effect = np.diag([0.0, 1.0])
    res = check_measurement_on_close_states(sigma, rho, effect)
    assert res.holds
    assert res.slack == pytest.approx(1.0, abs=1e-12)  # 0 >= 1 - 2


def test_close_states_rejects_bad_effect():
    rho = np.eye(2) / 2
    with pytest.raises(InvalidInputError):
        check_measurement_on_close_states(rho, rho, np.diag([1.5, 0.0]))


def test_tender_operator_projector_containing_support():
    # an effect acting as identity on the support leaves rho untouched
    rho = np.diag([0.6, 0.4, 0.0])
    effect = np.diag([1.0, 1.0, 0.0])
    res = check_tender_operator(rho, effect)
    assert res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-12)
    assert res.rhs == pytest.approx(0.0, abs=1e-9)


def test_tender_operator_partial_overlap():
    # capture 1/2: disturbance is bounded by sqrt(8 * 1/2) = 2
    rho = np.eye(2) / 2
    effect = np.diag([1.0, 0.0])
    res = check_tender_operator(rho, effect)
    assert res.holds
    assert res.rhs == pytest.approx(2.0, abs=1e-12)
    # sqrt(X) rho sqrt(X) = diag(1/2, 0), so the difference is diag(0, 1/2)
    assert res.lhs == pytest.approx(0.5, abs=1e-12)


def test_hayashi_nagaoka_t_zero_projector():
    # T = 0 and S a projector: both sides act as (id - S) and 2(id - S)
    s = np.diag([1.0, 0.0])
    res = check_hayashi_nagaoka(s, np.zeros((2, 2)))
    assert res.holds
    # gap is -(id - S) = diag(0, -1); its largest eigenvalue is 0
    assert res.lhs == pytest.approx(0.0, abs=1e-12)
    assert res.slack == pytest.approx(0.0, abs=1e-12)


def test_hayashi_nagaoka_identity_s():
    res = check_hayashi_nagaoka(np.eye(3), np.zeros((3, 3)))
    assert res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-12)


def test_hayashi_nagaoka_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        check_hayashi_nagaoka(np.eye(2), np.zeros((3, 3)))


def test_hayashi_nagaoka_coefficient_two_is_necessary():
    # documented counterexample to the coefficient-1 variant: a nearly
    # aligned rank-one S plus a small T tilts the normalized middle term
    # beyond (id - S) + 4T, while 2(id - S) + 4T still dominates
    theta = 0.01
    v = np.array([math.cos(theta), math.sin(theta)])
    s = np.outer(v, v)
    t = np.diag([0.05, 0.0])
    res = check_hayashi_nagaoka(s, t)
    assert res.holds, "coefficient-2 form must absorb the instance"

    eye = np.eye(2)
    normalizer = pseudo_sqrt_inverse(s + t)
    left = eye - normalizer @ s @ normalizer
    weak_right = (eye - s) + 4.0 * t
    weak_gap = np.linalg.eigvalsh(left - weak_right)[-1]
    assert weak_gap > 0.1, "coefficient-1 variant should fail here"


def test_hayashi_nagaoka_unitary_invariance():
    # conjugating both operators by a unitary leaves the slack unchanged
    rng = np.random.default_rng(17)
    s = random_subunital_positive(rng, 4)
    t = random_positive(rng, 4, scale=0.7)
    base = check_hayashi_nagaoka(s, t)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rotated = check_hayashi_nagaoka(q @ s @ q.conj().T, q @ t @ q.conj().T)
    assert rotated.slack == pytest.approx(base.slack, abs=1e-9)


def test_random_instance_generators():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    sub = random_subunital_positive(rng, 4)
    w = np.linalg.eigvalsh(sub)
    assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12
    pos = random_positive(rng, 4, scale=2.0)
    assert np.linalg.eigvalsh(pos).min() >= -1e-12


def test_sweep_lemma_checks_small_run_holds():
    summary = sweep_lemma_checks(trials=60, seed=20240801, dims=(2, 3, 4))
    assert set(summary) == {"close-states", "tender", "hayashi-nagaoka"}
    for name, entry in summary.items():
        assert entry["trials"] == 60
        assert entry["failures"] == 0, (name, entry)
        assert entry["all_hold"]
        assert entry["min_slack"] >= -1e-10


def test_sweep_lemma_checks_deterministic():
    a = sweep_lemma_checks(trials=25, seed=5)
    b = sweep_lemma_checks(trials=25, seed=5)
    assert a == b
    c = sweep_lemma_checks(trials=25, seed=6)
    assert a != c


def test_sweep_lemma_checks_subset_and_validation():
    summary = sweep_lemma_checks(trials=10, seed=1, which=("tender",))
    assert list(summary) == ["tender"]
    with pytest.raises(InvalidInputError):
        sweep_lemma_checks(trials=5, which=("mystery",))


def test_sweep_is_json_safe():
    import json

    json.dumps(sweep_lemma_checks(trials=5, seed=2))


# ---------------------------------------------------------------------------
# checked operands: a sweep checks each operand stack once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["close-states", "tender", "hayashi-nagaoka"])
def test_sweep_block_checks_each_operand_stack_in_one_call(name, monkeypatch):
    calls = []

    def recorded(mat, label, *args, **kwargs):
        out = _checked_spectrum(mat, label, *args, **kwargs)
        calls.append((label, mat, out))
        return out

    monkeypatch.setattr(lemmas, "_checked_spectrum", recorded)
    trials = 9
    summary = lemmas.sweep_lemma_checks(trials=trials, seed=3, dims=(2, 3), which=(name,))
    assert summary[name]["all_hold"]
    operands = len(lemmas._OPERANDS[name])
    raw = [(label, mat) for label, mat, _ in calls if not isinstance(mat, CheckedOperator)]
    passed = [(mat, out) for _, mat, out in calls if isinstance(mat, CheckedOperator)]
    # one call per operand and dimension, each on a (k, d, d) stack ...
    by_label = {}
    for label, mat in raw:
        assert mat.ndim == 3
        by_label.setdefault(label, []).append(mat.shape)
    assert len(by_label) == operands
    for shapes in by_label.values():
        assert sum(shape[0] for shape in shapes) == trials
        assert len({shape[-1] for shape in shapes}) == len(shapes)
    # ... and each trial's check gets checked slices it does not check again
    assert len(passed) == trials * operands
    assert all(out is mat for mat, out in passed)


def test_sweep_calls_each_check_once_per_trial(monkeypatch):
    calls = []
    original = lemmas.check_tender_operator
    monkeypatch.setattr(lemmas, "check_tender_operator", lambda *a, **k: calls.append(1) or original(*a, **k))
    lemmas.sweep_lemma_checks(trials=11, seed=4, which=("tender",))
    assert len(calls) == 11


class _StopSweep(Exception):
    pass


def test_sweep_spawns_its_trial_streams_one_block_at_a_time(monkeypatch):
    # a child stream takes about 370 bytes: spawning every trial's child up
    # front held about 74 MB for 200,000 trials before the first check
    def stop(name, block):
        raise _StopSweep(len(block))

    monkeypatch.setattr(lemmas, "_block_operands", stop)
    tracemalloc.start()
    try:
        with pytest.raises(_StopSweep) as stopped:
            sweep_lemma_checks(trials=200_000, which=("tender",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stopped.value.args == (lemmas.SWEEP_BLOCK,)
    assert peak < 4 * 2**20


def test_checked_operands_give_the_raw_operands_results():
    rng = np.random.default_rng(23)
    sigma, rho = random_density(rng, 3), random_density(rng, 3)
    effect, s, t = random_subunital_positive(rng, 3), random_subunital_positive(rng, 3), random_positive(rng, 3)
    density = lambda m: _checked_spectrum(m, "state", density=True)  # noqa: E731
    sub_unital = lambda m: _checked_spectrum(m, "effect", sub_unital=True, vectors=True)  # noqa: E731
    assert check_measurement_on_close_states(density(sigma), density(rho), sub_unital(effect)) == (
        check_measurement_on_close_states(sigma, rho, effect)
    )
    assert check_tender_operator(density(rho), sub_unital(effect)) == check_tender_operator(rho, effect)
    assert check_hayashi_nagaoka(sub_unital(s), _checked_spectrum(t, "T")) == check_hayashi_nagaoka(s, t)


def test_checks_skip_only_the_rechecks_of_checked_operands(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _f=original, **k: calls.append(1) or _f(a, *r, **k))
    rng = np.random.default_rng(29)
    rho, effect = random_density(rng, 3), random_subunital_positive(rng, 3)
    checked_rho = _checked_spectrum(rho, "rho", density=True)
    checked_effect = _checked_spectrum(effect, "effect", sub_unital=True, vectors=True)
    calls.clear()
    check_tender_operator(rho, effect)
    assert len(calls) == 3  # rho, the effect (whose eigh the square root reuses), the trace norm
    calls.clear()
    check_tender_operator(checked_rho, checked_effect)
    assert len(calls) == 1  # the trace norm only


def test_checked_operand_lacking_the_needed_property_is_rejected():
    rho = np.eye(2) / 2
    positive = _checked_spectrum(np.diag([0.3, 1.2]), "operator", vectors=True)
    with pytest.raises(InvalidInputError, match=r"^effect exceeds the identity"):
        check_tender_operator(rho, positive)
    with pytest.raises(InvalidInputError, match=r"^effect exceeds the identity"):
        check_measurement_on_close_states(rho, rho, positive)
    with pytest.raises(InvalidInputError, match=r"^S exceeds the identity"):
        check_hayashi_nagaoka(positive, np.zeros((2, 2)))
    with pytest.raises(InvalidInputError, match=r"^sigma has trace 1.5"):
        check_measurement_on_close_states(positive, rho, np.eye(2))
