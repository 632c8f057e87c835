import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cqrelay.channels import (
    CQChannel,
    depolarized_channel,
    orthogonal_pure_channel,
    output_state,
    overlap_pair_channel,
    product_broadcast_channel,
)
from cqrelay.errors import InvalidInputError, ResourceLimitError
from cqrelay.operators import ProbabilityDistribution, trace_pair
from cqrelay.typicality import (
    PRESET_FIXED,
    PRESET_SQRT,
    TypicalSet,
    _eigenpairs,
    averaged_state_projector,
    conditional_typical_projector,
    resolve_preset,
    spectrum_projector_stats,
    threshold_for,
    typical_projector,
    verify_conditional_projector_bounds,
    verify_state_projector_bounds,
)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_qubit_channel(rng):
    return CQChannel(("0", "1"), {"0": random_density(rng, 2), "1": random_density(rng, 2)})


# ---------------------------------------------------------------------------
# thresholds and presets
# ---------------------------------------------------------------------------


def test_eigenpairs_descending_and_consistent():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    w, u = _eigenpairs(rho, "state")
    assert np.all(np.diff(w) <= 1e-12)
    assert np.allclose(u @ np.diag(w) @ u.conj().T, rho)


def test_threshold_presets():
    assert threshold_for(0.7, 9, PRESET_FIXED) == pytest.approx(0.7)
    assert threshold_for(0.7, 9, PRESET_SQRT) == pytest.approx(0.7 / 3.0)
    with pytest.raises(InvalidInputError, match="unknown threshold preset"):
        resolve_preset("sqrt-scaled")
    with pytest.raises(InvalidInputError):
        resolve_preset("cubic")
    with pytest.raises(InvalidInputError):
        threshold_for(-1.0, 4, PRESET_FIXED)
    with pytest.raises(InvalidInputError):
        threshold_for(1.0, 0, PRESET_FIXED)


@pytest.mark.parametrize("length", [2.5, True, 0, -3])
def test_thresholds_refuse_lengths_that_are_not_positive_integers(length):
    with pytest.raises(InvalidInputError, match=r"^block length must be an integer >= 1, got "):
        threshold_for(0.5, length, PRESET_FIXED)


@pytest.mark.parametrize("length", [2.5, True])
def test_typical_sets_refuse_lengths_that_are_not_integers(length):
    dist = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    with pytest.raises(InvalidInputError, match=r"^word length must be an integer >= 1, got "):
        TypicalSet(dist, length, 0.5)


def test_typical_sets_take_integral_float_lengths():
    dist = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    assert TypicalSet(dist, 3.0, 0.5).n == 3
    assert TypicalSet(dist, 3.0, 0.5).size() == TypicalSet(dist, 3, 0.5).size() == 6


def test_state_projector_bounds_refuse_a_fractional_length():
    with pytest.raises(InvalidInputError, match=r"^block length must be an integer >= 1, got 3.5$"):
        verify_state_projector_bounds(np.diag([0.7, 0.3]), 3.5, 0.5)


@pytest.mark.parametrize(
    "n, tau, message",
    [
        (0, 0.3, "block length must be an integer >= 1, got 0"),
        (2.5, 0.3, "block length must be an integer >= 1, got 2.5"),
        (2, math.nan, "thresholds must be finite and >= 0, got nan"),
        (2, math.inf, "thresholds must be finite and >= 0, got inf"),
        (2, -0.1, "thresholds must be finite and >= 0, got -0.1"),
    ],
)
def test_spectrum_stats_refuse_bad_lengths_and_thresholds(n, tau, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        spectrum_projector_stats([0.5, 0.5], n, tau)


def test_spectrum_stats_refuse_a_bad_length_in_a_stack_before_any_table():
    # the lengths are checked together, so the valid ones score nothing first
    with pytest.raises(InvalidInputError, match="got 3.5$"):
        spectrum_projector_stats([[0.5, 0.5]] * 3, [2, 3.5, 4], 0.3)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_thresholds_refuse_a_bool_alpha(flag):
    with pytest.raises(InvalidInputError, match=r"^threshold parameter must be positive and finite, got True$"):
        threshold_for(flag, 3, PRESET_FIXED)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_typical_sets_refuse_a_bool_delta(flag):
    dist = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    with pytest.raises(InvalidInputError, match=r"^delta must be positive and finite, got True$"):
        TypicalSet(dist, 3, flag)


def test_averaged_state_refusals_name_the_given_alpha():
    # 3e153 * sqrt(2) squared at n = 4 overflows; the message names 3e+153
    channel = product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2)).marginal(1)
    dist = ProbabilityDistribution.uniform(channel.alphabet)
    message = r"^threshold parameter 3e\+153 times sqrt\(\|A\|\) = sqrt\(2\) for the averaged state is out of range"
    with pytest.raises(InvalidInputError, match=message):
        averaged_state_projector(channel, dist, 4, 3e153)
    # the scaled parameter decides: 1.3e-162 squared underflows, 1.3e-162 * sqrt(2) squared does not
    with pytest.raises(InvalidInputError):
        threshold_for(1.3e-162, 2, PRESET_FIXED)
    assert averaged_state_projector(channel, dist, 2, 1.3e-162).taus[0] == 1.3e-162 * math.sqrt(2)


def test_empty_state_stacks_give_no_reports_after_checking_n_and_alpha():
    empty = np.zeros((0, 2, 2))
    assert verify_state_projector_bounds(empty, 3, 0.5) == []
    with pytest.raises(InvalidInputError, match=r"^block length must be an integer >= 1, got 0$"):
        verify_state_projector_bounds(empty, 0, 0.5)
    with pytest.raises(InvalidInputError, match=r"^threshold parameter must be positive and finite, got -1.0$"):
        verify_state_projector_bounds(empty, 3, -1.0)
    with pytest.raises(InvalidInputError, match=r"^threshold parameter 1e\+300 is out of range"):
        verify_state_projector_bounds(empty, 3, 1e300)


def test_empty_conditional_stacks_give_no_reports():
    dist = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    assert verify_conditional_projector_bounds(np.zeros((0, 2, 2, 2)), [], dist, 0.5) == []


# ---------------------------------------------------------------------------
# frequency-typical word sets
# ---------------------------------------------------------------------------


def brute_force_members(dist, n, delta):
    # independent re-derivation of the membership predicate
    out = []
    for word in itertools.product(dist.labels, repeat=n):
        counts = Counter(word)
        ok = all(
            abs(counts.get(a, 0) / n - dist.weights[dist.labels.index(a)]) <= delta / len(dist.labels)
            for a in dist.labels
        )
        if ok:
            out.append(word)
    return out


def test_typical_set_matches_brute_force_enumeration():
    cases = [
        (ProbabilityDistribution.uniform(("0", "1")), 6, 0.5),
        (ProbabilityDistribution(("0", "1"), np.array([0.25, 0.75])), 7, 0.4),
        (ProbabilityDistribution.uniform(("a", "b", "c")), 5, 0.9),
    ]
    for dist, n, delta in cases:
        tset = TypicalSet(dist, n, delta)
        expected = brute_force_members(dist, n, delta)
        got = [word for word in itertools.product(dist.labels, repeat=n) if word in tset]
        assert got == expected
        assert tset.size() == len(expected)
        mass = sum(
            math.prod(dist.weights[dist.labels.index(a)] for a in word) for word in expected
        )
        assert tset.probability() == pytest.approx(mass, abs=1e-12)


def test_typical_set_membership_predicate():
    dist = ProbabilityDistribution.uniform(("0", "1"))
    tset = TypicalSet(dist, 4, 0.5)
    # threshold is delta/|A| = 0.25, so counts of "0" in {1, 2, 3} qualify
    assert ("0", "1", "0", "1") in tset
    assert ("0", "0", "0", "1") in tset
    assert ("0", "0", "0", "0") not in tset
    with pytest.raises(InvalidInputError):
        ("0", "1") in tset  # wrong length
    with pytest.raises(InvalidInputError):
        ("0", "x", "0", "1") in tset  # letter outside the alphabet


def test_typical_set_can_be_empty():
    # threshold 0.2 leaves no integer count near n/2 when n = 1
    dist = ProbabilityDistribution.uniform(("0", "1"))
    tset = TypicalSet(dist, 1, 0.4)
    assert tset.size() == 0
    assert tset.probability() == 0.0
    assert not any(word in tset for word in itertools.product(dist.labels, repeat=1))


def test_typical_set_probability_grows_with_n():
    dist = ProbabilityDistribution(("0", "1"), np.array([0.3, 0.7]))
    probs = [TypicalSet(dist, n, 0.5).probability() for n in (8, 32, 128)]
    assert probs[0] < probs[1] < probs[2] <= 1.0


def test_typical_set_validates_parameters():
    dist = ProbabilityDistribution.uniform(("0", "1"))
    with pytest.raises(InvalidInputError):
        TypicalSet(dist, 0, 0.5)
    for delta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            TypicalSet(dist, 4, delta)


def test_typical_set_huge_delta_admits_every_word():
    dist = ProbabilityDistribution(("0", "1", "2"), np.array([0.5, 0.5, 0.0]))
    tset = TypicalSet(dist, 5, 1e308)
    assert tset.count_windows() == [(0, 5)] * 3
    assert tset.size() == 3**5
    assert ("2",) * 5 in tset


def test_typical_set_sample_draws_members():
    dist = ProbabilityDistribution(("0", "1"), np.array([0.3, 0.7]))
    tset = TypicalSet(dist, 8, 0.2)
    rng = np.random.default_rng(4)
    words = [tset.sample(rng, 1000) for _ in range(20)]
    assert all(word in tset for word in words)
    with pytest.raises(ResourceLimitError):
        tset.sample(rng, 0)  # no try left


# ---------------------------------------------------------------------------
# typical subspace projectors (dense oracles)
# ---------------------------------------------------------------------------


def dense_state_projector(rho, n, tau):
    # independent construction: eigendecompose, keep index words whose
    # per-index frequencies sit within tau of the eigenvalue, excluding
    # zero eigenvalues outright
    w, u = np.linalg.eigh(rho)
    d = rho.shape[0]
    total = d**n
    proj = np.zeros((total, total), dtype=complex)
    for word in itertools.product(range(d), repeat=n):
        ok = True
        for i in range(d):
            k = word.count(i)
            lam = w[i]
            if lam <= 1e-12:
                if k > 0:
                    ok = False
                    break
            elif abs(k / n - lam) > tau:
                ok = False
                break
        if ok:
            vec = np.array([1.0], dtype=complex)
            for j in word:
                vec = np.kron(vec, u[:, j])
            proj += np.outer(vec, vec.conj())
    return proj


def test_typical_projector_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    for dim, n in [(2, 3), (2, 4), (3, 2), (3, 3)]:
        rho = random_density(rng, dim)
        for alpha in (0.2, 0.5, 1.0):
            proj = typical_projector(rho, n, alpha, PRESET_FIXED)
            oracle = dense_state_projector(rho, n, alpha)
            assert np.allclose(proj.matrix(), oracle, atol=1e-9)


def test_typical_projector_is_projector_and_commutes():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 2)
    proj = typical_projector(rho, 4, 0.3, PRESET_FIXED)
    mat = proj.matrix()
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    assert np.allclose(mat @ mat, mat, atol=1e-10)
    block = rho
    for _ in range(3):
        block = np.kron(block, rho)
    assert np.allclose(mat @ block, block @ mat, atol=1e-10)
    assert np.trace(mat).real == pytest.approx(proj.rank, abs=1e-9)


def test_typical_projector_permutation_symmetry():
    # swapping the two tensor factors leaves the projector unchanged
    rng = np.random.default_rng(13)
    rho = random_density(rng, 2)
    mat = typical_projector(rho, 2, 0.3, PRESET_FIXED).matrix()
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    assert np.allclose(swap @ mat @ swap, mat, atol=1e-12)


def test_typical_projector_pure_state_is_rank_one():
    rho = np.array([[1.0, 0.0], [0.0, 0.0]])
    proj = typical_projector(rho, 5, 0.5, PRESET_FIXED)
    assert proj.rank == 1
    assert proj.index_words().tolist() == [[0, 0, 0, 0, 0]]
    cap = trace_pair(proj.matrix(), np.kron(np.kron(np.kron(np.kron(rho, rho), rho), rho), rho))
    assert cap == pytest.approx(1.0, abs=1e-12)


def test_typical_projector_zero_eigenvalue_exclusion():
    # rank-2 qutrit state: index 2 carries eigenvalue 0 and is never admitted
    rho = np.diag([0.7, 0.3, 0.0])
    proj = typical_projector(rho, 3, 1.0, PRESET_FIXED)
    assert all(2 not in word for word in proj.index_words().tolist())
    reduced = typical_projector(np.diag([0.7, 0.3]), 3, 1.0, PRESET_FIXED)
    assert proj.rank == reduced.rank


def test_typical_projector_full_capture_at_large_alpha():
    rng = np.random.default_rng(21)
    rho = random_density(rng, 2)
    proj = typical_projector(rho, 3, 5.0, PRESET_FIXED)
    # every positive-eigenvalue word is admitted
    assert proj.rank == 8
    block = np.kron(np.kron(rho, rho), rho)
    assert trace_pair(proj.matrix(), block) == pytest.approx(1.0, abs=1e-10)


def test_typical_projector_included_vectors_orthonormal():
    rng = np.random.default_rng(33)
    rho = random_density(rng, 2)
    proj = typical_projector(rho, 4, 0.4, PRESET_FIXED)
    cols = proj.included_vectors()
    gram = cols.conj().T @ cols
    assert np.allclose(gram, np.eye(cols.shape[1]), atol=1e-10)


def test_typical_projector_dim_cap():
    # the mask and its lookups take 4 bytes per index word: 4 GiB at n = 30
    rho = np.eye(2) / 2
    typical_projector(rho, 5, 1.0, PRESET_FIXED)
    with pytest.raises(ResourceLimitError, match=r"^typical projector for n=30 needs about 4 GiB, above the 2 GiB memory budget$"):
        typical_projector(rho, 30, 1.0, PRESET_FIXED)


def test_typical_projector_dim_cap_rejects_absurd_n_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"^typical projector for n=1000000000000 needs about more bytes than a float counts, above the 2 GiB memory budget$"):
            typical_projector(np.eye(2) / 2, 10**12, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [64, 65])
def test_one_dimensional_projectors_take_any_block_length(n):
    # 1^n passes every dimension cap, so neither building nor reading a
    # mask may need an array with n axes
    channel = CQChannel(("0", "1"), {"0": np.eye(1), "1": np.eye(1)})
    word = ("0", "1") * (n // 2) + ("0",) * (n % 2)
    for proj in (typical_projector(np.eye(1), n, 0.5), conditional_typical_projector(channel, word, 0.5)):
        assert proj.rank == 1
        assert proj.index_words().tolist() == [[0] * n]


def test_projector_masks_are_built_in_about_their_own_size():
    # the product-broadcast receiver-2 marginal at n = 18: each mask is
    # 256 KiB, while a table of all 2^18 index words would take 36 MiB
    channel = product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2)).marginal(2)
    dist = ProbabilityDistribution.uniform(channel.alphabet)
    builds = (
        lambda: averaged_state_projector(channel, dist, 18, 0.3),
        lambda: conditional_typical_projector(channel, ("0", "1") * 9, 0.3),
    )
    for build in builds:
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def test_spectrum_stats_match_dense_projector():
    rng = np.random.default_rng(77)
    for dim, n in [(2, 4), (3, 3)]:
        rho = random_density(rng, dim)
        for alpha in (0.25, 0.6):
            proj = typical_projector(rho, n, alpha, PRESET_FIXED)
            stats = verify_state_projector_bounds(rho, n, alpha, PRESET_FIXED).measured
            mat = proj.matrix()
            block = rho
            for _ in range(n - 1):
                block = np.kron(block, rho)
            assert stats["rank"] == proj.rank
            assert stats["capture"] == pytest.approx(trace_pair(mat, block), abs=1e-10)
            compressed = mat @ block @ mat
            lam = np.linalg.eigvalsh(compressed).max() if proj.rank else 0.0
            assert stats["lambda_max"] == pytest.approx(max(lam, 0.0), abs=1e-10)


def test_spectrum_stats_empty_projector():
    stats = spectrum_projector_stats(np.array([0.5, 0.5]), 1, 0.2)
    assert stats.rank == 0
    assert stats.capture == 0.0
    assert stats.lambda_max == 0.0


# ---------------------------------------------------------------------------
# conditional projectors
# ---------------------------------------------------------------------------


def dense_conditional_projector(channel, word, alpha):
    # per letter class, the sub-word of eigen-indices must be typical for
    # that letter's spectrum at the class length
    d = channel.output_dim
    n = len(word)
    eigs = {}
    for a in set(word):
        w, u = np.linalg.eigh(channel.state(a))
        eigs[a] = (w, u)
    sizes = Counter(word)
    total = d**n
    proj = np.zeros((total, total), dtype=complex)
    for jword in itertools.product(range(d), repeat=n):
        ok = True
        for a, na in sizes.items():
            w, _ = eigs[a]
            tau = alpha  # fixed preset
            for i in range(d):
                k = sum(
                    1 for pos, b in enumerate(word) if b == a and jword[pos] == i
                )
                if w[i] <= 1e-12:
                    if k > 0:
                        ok = False
                        break
                elif abs(k / na - w[i]) > tau:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            vec = np.array([1.0], dtype=complex)
            for a, j in zip(word, jword):
                vec = np.kron(vec, eigs[a][1][:, j])
            proj += np.outer(vec, vec.conj())
    return proj


def test_conditional_projector_matches_dense_oracle():
    rng = np.random.default_rng(55)
    ch = random_qubit_channel(rng)
    for word in [("0", "1", "0"), ("1", "1", "0", "0")]:
        for alpha in (0.3, 0.6):
            proj = conditional_typical_projector(ch, word, alpha, PRESET_FIXED)
            oracle = dense_conditional_projector(ch, word, alpha)
            assert np.allclose(proj.matrix(), oracle, atol=1e-9)


def test_conditional_stats_match_dense_projector():
    rng = np.random.default_rng(59)
    ch = random_qubit_channel(rng)
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    word = ("0", "1", "1", "0")
    for alpha in (0.3, 0.7):
        proj = conditional_typical_projector(ch, word, alpha, PRESET_FIXED)
        stats = verify_conditional_projector_bounds(ch, word, dist, alpha, PRESET_FIXED).measured
        mat = proj.matrix()
        state = ch.word_state(word)
        assert stats["rank"] == proj.rank
        assert stats["capture"] == pytest.approx(trace_pair(mat, state), abs=1e-10)
        lam = np.linalg.eigvalsh(mat @ state @ mat).max() if proj.rank else 0.0
        assert stats["lambda_max"] == pytest.approx(max(lam, 0.0), abs=1e-10)


def test_conditional_projector_single_class_reduces_to_state_case():
    ch = depolarized_channel(0.2)
    word = ("0",) * 4
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    cond = verify_conditional_projector_bounds(ch, word, dist, 0.3, PRESET_FIXED).measured
    plain = verify_state_projector_bounds(ch.state("0"), 4, 0.3, PRESET_FIXED).measured
    assert cond["rank"] == plain["rank"]
    assert cond["capture"] == pytest.approx(plain["capture"], abs=1e-12)
    assert cond["lambda_max"] == pytest.approx(plain["lambda_max"], abs=1e-12)


def test_conditional_projector_class_length_is_per_letter():
    # with sqrt preset the per-class threshold uses the class size, so a
    # word with unbalanced classes differs from the balanced one in rank
    ch = depolarized_channel(0.3)
    word = ("0", "0", "0", "1")
    a = conditional_typical_projector(ch, word, 0.9, PRESET_SQRT)
    assert a.taus["0"] == pytest.approx(0.9 / math.sqrt(3))
    assert a.taus["1"] == pytest.approx(0.9)
    # the report's quarter bound sums d / (4 n_a tau_a^2) over the same classes
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    report = verify_conditional_projector_bounds(ch, word, dist, 0.9, PRESET_SQRT)
    quarter = 2 / (4 * 3 * a.taus["0"] ** 2) + 2 / (4 * 1 * a.taus["1"] ** 2)
    assert report.provable_bounds["capture_quarter"] == pytest.approx(1.0 - quarter)


def test_conditional_projector_rejects_empty_word():
    ch = depolarized_channel(0.2)
    with pytest.raises(InvalidInputError):
        conditional_typical_projector(ch, (), 0.5)
    with pytest.raises(InvalidInputError, match="^conditioning word is empty$"):
        verify_conditional_projector_bounds(ch, (), ProbabilityDistribution.uniform(ch.alphabet), 0.5)


# ---------------------------------------------------------------------------
# cross capture
# ---------------------------------------------------------------------------


def variance_sum(report):
    # an exact-type word's provable cross bound is 1 - variance sum / (n tau)^2
    scale = (report.params["n"] * report.params["cross_tau"]) ** 2
    return (1.0 - report.provable_bounds["cross_capture"]) * scale


def test_cross_capture_matches_dense_oracle():
    rng = np.random.default_rng(61)
    ch = random_qubit_channel(rng)
    dist = ProbabilityDistribution.uniform(("0", "1"))
    word = ("0", "1", "1", "0")
    for alpha in (0.3, 0.8):
        report = verify_conditional_projector_bounds(ch, word, dist, alpha, PRESET_FIXED)
        avg = output_state(ch, dist)
        proj = typical_projector(avg, len(word), alpha * math.sqrt(2), PRESET_FIXED)
        assert report.params["cross_tau"] == pytest.approx(proj.taus[0])
        expected = trace_pair(proj.matrix(), ch.word_state(word))
        assert report.measured["cross_capture"] == pytest.approx(expected, abs=1e-10)


def test_cross_capture_orthogonal_channel_exact_type():
    # orthogonal pure outputs: the averaged-state projector admits exactly
    # the balanced index words, and an exact-type word is one of them
    ch = orthogonal_pure_channel()
    dist = ProbabilityDistribution.uniform(("0", "1"))
    stats = verify_conditional_projector_bounds(ch, ("0", "1", "0", "1"), dist, 0.2, PRESET_FIXED).measured
    assert stats["cross_capture"] == pytest.approx(1.0, abs=1e-12)
    assert stats["cross_mean_shift"] == pytest.approx(0.0, abs=1e-12)


def test_cross_capture_variance_formula():
    # binary channel, uniform dist: variance adds q_i(1-q_i) per position
    ch = overlap_pair_channel()
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    word = ("0", "+", "0", "+")
    report = verify_conditional_projector_bounds(ch, word, dist, 0.5, PRESET_FIXED)
    assert report.params["exact_type"]
    avg = output_state(ch, dist)
    w, u = np.linalg.eigh(avg)
    var = 0.0
    for a in word:
        q = np.real(np.diag(u.conj().T @ ch.state(a) @ u))
        var += float((q * (1 - q)).sum())
    assert variance_sum(report) == pytest.approx(var, abs=1e-10)


# ---------------------------------------------------------------------------
# bound verification reports
# ---------------------------------------------------------------------------


def test_state_bound_report_provable_flags_hold():
    rng = np.random.default_rng(101)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        n = int(rng.integers(2, 9))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        report = verify_state_projector_bounds(rho, n, alpha, PRESET_FIXED)
        assert report.all_provable_hold(), report.as_dict()
        assert report.flags["reference_capture"]
        assert report.empirical_K >= 0.0
        assert math.isfinite(report.empirical_K)


def test_state_bound_report_quantities():
    rho = np.diag([0.75, 0.25])
    report = verify_state_projector_bounds(rho, 4, 1.0, PRESET_FIXED)
    assert report.kind == "state"
    assert report.params["tau"] == pytest.approx(1.0)
    # entropy of the spectrum and the log-inverse sum drive the exponents
    ent = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    c = math.log2(1 / 0.75) + math.log2(1 / 0.25)
    assert report.params["entropy_bits"] == pytest.approx(ent, abs=1e-12)
    assert report.provable_bounds["counting_log2"] == pytest.approx(4 * (ent + c), abs=1e-9)
    assert report.provable_bounds["equipartition_log2"] == pytest.approx(
        -4 * (ent - c), abs=1e-9
    )
    # at tau = 1 every positive-index word is admitted
    assert report.measured["capture"] == pytest.approx(1.0, abs=1e-12)
    assert report.measured["rank"] == 16


def test_state_bound_report_sqrt_preset():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2)
    report = verify_state_projector_bounds(rho, 9, 2.0, PRESET_SQRT)
    assert report.params["tau"] == pytest.approx(2.0 / 3.0)
    assert report.all_provable_hold()


def test_conditional_bound_report_on_typical_words():
    rng = np.random.default_rng(103)
    dist = ProbabilityDistribution.uniform(("0", "1"))
    for _ in range(10):
        ch = random_qubit_channel(rng)
        n = int(rng.integers(3, 8))
        words = brute_force_members(dist, n, 0.5)
        word = words[int(rng.integers(0, len(words)))]
        report = verify_conditional_projector_bounds(ch, word, dist, 1.0, PRESET_FIXED)
        assert report.all_provable_hold(), report.as_dict()
        assert report.kind == "conditional"


def test_conditional_report_exact_type_gets_cross_bound():
    rng = np.random.default_rng(107)
    ch = random_qubit_channel(rng)
    dist = ProbabilityDistribution.uniform(("0", "1"))
    exact = verify_conditional_projector_bounds(ch, ("0", "1", "0", "1"), dist, 0.7)
    assert exact.params["exact_type"]
    assert "provable_cross_capture" in exact.flags
    assert exact.flags["provable_cross_capture"]
    skewed = verify_conditional_projector_bounds(ch, ("0", "0", "0", "1"), dist, 0.7)
    assert not skewed.params["exact_type"]
    assert "provable_cross_capture" not in skewed.flags
    assert skewed.provable_bounds["cross_capture"] is None


def test_conditional_report_empirical_type_is_always_exact():
    # declaring the word's own empirical type as the input distribution
    # makes the cross-capture bound provable for any word
    rng = np.random.default_rng(109)
    ch = random_qubit_channel(rng)
    word = ("0", "0", "0", "1", "1")
    dist = ProbabilityDistribution(("0", "1"), np.array([0.6, 0.4]))
    report = verify_conditional_projector_bounds(ch, word, dist, 1.0)
    assert report.params["exact_type"]
    assert report.flags["provable_cross_capture"]


def test_bound_report_is_json_safe():
    import json

    rho = np.diag([0.6, 0.4])
    rep = verify_state_projector_bounds(rho, 3, 0.5)
    json.dumps(rep.as_dict())  # must not raise
    ch = depolarized_channel(0.1)
    dist = ProbabilityDistribution.uniform(("0", "1"))
    rep = verify_conditional_projector_bounds(ch, ("0", "1", "0", "1"), dist, 0.5)
    json.dumps(rep.as_dict())


def test_state_reports_decompose_each_state_once(monkeypatch):
    # the density check reads the same eigh whose spectrum the reports use
    rng = np.random.default_rng(59)
    stack = np.array([random_density(rng, 3) for _ in range(4)])
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _f=original, **k: calls.append(a.shape) or _f(a, *r, **k))
    reports = verify_state_projector_bounds(stack, 5, 1.0)
    assert calls == [(4, 3, 3)]
    one = verify_state_projector_bounds(stack[1], 5, 1.0)
    assert calls == [(4, 3, 3), (3, 3)]
    assert reports[1].measured["capture"] == one.measured["capture"]
    with pytest.raises(InvalidInputError, match=r"^state\[2\] has trace"):
        verify_state_projector_bounds(stack * np.array([1.0, 1.0, 1.1, 1.0])[:, None, None], 5, 1.0)


def test_conditional_reports_decompose_each_letter_state_once(monkeypatch):
    # the density check's eigvalsh of the letter stack gives every class
    # spectrum; the cross capture adds one eigh of the averaged states
    rng = np.random.default_rng(61)
    dist = ProbabilityDistribution(("0", "1", "2"), [0.5, 0.3, 0.2])
    stack = np.array([[random_density(rng, 3) for _ in dist.labels] for _ in range(4)])
    words = [("0", "1", "0", "2"), ("2", "2", "1"), ("0",) * 5, ("1", "0", "2", "0", "1")]
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *r, _f=original, _n=name, **k: calls.append((_n, a.shape)) or _f(a, *r, **k)
        )
    reports = verify_conditional_projector_bounds(stack, words, dist, 0.5)
    assert calls == [("eigvalsh", (4, 3, 3, 3)), ("eigh", (4, 3, 3))]
    assert len(reports) == 4


def test_typical_projector_decomposes_the_state_once(monkeypatch):
    # the density check reads the one eigh whose decomposition the projector uses
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *r, _f=original, _n=name, **k: calls.append(_n) or _f(a, *r, **k)
        )
    proj = typical_projector(np.diag([0.7, 0.3]), 3, 1.0)
    assert calls == ["eigh"]
    assert proj.rank == 8


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.diag([1.2, -0.2]), r"^state has negative eigenvalue -2\.000e-01$"),
        (np.diag([0.7, 0.4]), r"^state has trace 1\.1, expected 1$"),
    ],
)
def test_typical_projector_rejects_invalid_states(rho, message):
    with pytest.raises(InvalidInputError, match=message):
        typical_projector(rho, 3, 1.0)


def test_typical_projector_refuses_a_stack_before_decomposing(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *r, _f=original, _n=name, **k: calls.append(_n) or _f(a, *r, **k)
        )
    stack = np.array([np.diag([0.7, 0.3]), np.diag([0.5, 0.5])])
    with pytest.raises(InvalidInputError, match=r"^state must be one d x d matrix, got shape \(2, 2, 2\)$"):
        typical_projector(stack, 3, 1.0)
    with pytest.raises(InvalidInputError, match="one d x d matrix"):
        typical_projector(np.array([0.7, 0.3]), 3, 1.0)
    assert calls == []


@pytest.mark.parametrize("make", [lambda: depolarized_channel(0.1), overlap_pair_channel])
def test_real_letter_states_are_decomposed_as_real(monkeypatch, make):
    # a channel whose letter states are real keeps them float64 through every
    # conditional and cross report; the same states passed in as complex,
    # as a channel or as a stack, give the same numbers
    ch = make()
    dist = ProbabilityDistribution(ch.alphabet, [0.6, 0.4])
    word = tuple(ch.alphabet[i] for i in (0, 1, 0, 0, 1, 0))
    # the second word has dist's exact type, so its report carries the
    # cross variance sum in its provable bound
    words = [word, word[:5]]
    as_complex = CQChannel(ch.alphabet, {a: ch.state(a).astype(complex) for a in ch.alphabet}, validate=False)
    dtypes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _f=original, **k: dtypes.append(a.dtype) or _f(a, *r, **k))
    real = [verify_conditional_projector_bounds(ch, w, dist, 0.5) for w in words]
    assert dtypes and set(dtypes) == {np.dtype(float)}
    stack = np.array([[ch.state(a) for a in dist.labels]] * 2, dtype=complex)
    for cplx in (
        [verify_conditional_projector_bounds(as_complex, w, dist, 0.5) for w in words],
        verify_conditional_projector_bounds(stack, words, dist, 0.5),
    ):
        assert np.dtype(complex) in dtypes
        for want, got in zip(real, cplx):
            assert want.measured.keys() == got.measured.keys()
            for key, value in want.measured.items():
                assert value == pytest.approx(got.measured[key], abs=1e-12)
            assert want.flags == got.flags
        assert real[1].params["exact_type"] and cplx[1].params["exact_type"]
        assert variance_sum(real[1]) == pytest.approx(variance_sum(cplx[1]), abs=1e-12)
