"""Scalar oracles for the batched verification paths.

The operator routines, the random-operator builders of the lemma sweeps and
the projector report builders evaluate whole (..., d, d) stacks at once.
The oracle is the one-instance code they generalize: the lemma checks and
generators on one matrix at a time, the count-class loop over admissible
count vectors, the dictionary convolution of letter-class counts and the
per-instance report arithmetic, all kept below.

Typical sets, projector index sets and distribution grids share one
enumeration of count vectors (operators.compositions) and one window
predicate (typicality._count_allowed).  Their oracles are the recursive
enumerators and the scalar ceil/floor count windows those replace.
Every per-trial slack and every report field must equal the oracle exactly;
only the cross capture, which now grows the count law one position at a
time instead of merging letter classes in dictionary insertion order, may
differ, by at most 1e-12; its own oracle also enumerates every index word.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from cqrelay import lemmas, typicality
from cqrelay.channels import CQChannel, output_state
from cqrelay.errors import InvalidInputError
from cqrelay.lemmas import (
    check_hayashi_nagaoka,
    check_measurement_on_close_states,
    check_tender_operator,
    densities,
    gaussian_draws,
    random_density,
    random_positive,
    random_subunital_positive,
    scaled_positives,
    subunital_effects,
    sweep_lemma_checks,
)
from cqrelay.operators import (
    ProbabilityDistribution,
    as_square_matrix,
    _hermitian,
    checked_operator,
    compositions,
    matrix_sqrt,
    pseudo_sqrt_inverse,
    spectrum_entropy_bits,
    trace_norm,
    trace_pair,
)
from cqrelay.regions import DistributionGrid
from cqrelay.typicality import (
    PRESET_FIXED,
    PRESET_SQRT,
    TypicalSet,
    _clean_eigenvalues,
    _count_table,
    conditional_typical_projector,
    spectrum_projector_stats,
    threshold_for,
    typical_projector,
    verify_conditional_projector_bounds,
    verify_state_projector_bounds,
)

SEEDS = (20240801, 7, 123456)
DIMS = (2, 3, 4, 5, 6, 7, 8)
CROSS_TOL = 1e-12

# ---------------------------------------------------------------------------
# Oracle: one-matrix operator routines.
# ---------------------------------------------------------------------------


def o_herm(m):
    return (m + m.conj().T) / 2


def o_trace_norm(m):
    return float(np.abs(np.linalg.eigvalsh(o_herm(m))).sum())


def o_trace_pair(a, b):
    return float(np.einsum("ij,ji->", a, b).real)


def o_matrix_sqrt(m):
    w, u = np.linalg.eigh(o_herm(m))
    w = np.clip(w, 0.0, None)
    return o_herm((u * np.sqrt(w)) @ u.conj().T)


def o_pseudo_sqrt_inverse(m, rel_tol=1e-10):
    w, u = np.linalg.eigh(o_herm(m))
    wmax = float(w[-1]) if w.size else 0.0
    if wmax <= 0.0:
        return np.zeros_like(m)
    inv = np.where(w > rel_tol * wmax, 1.0 / np.sqrt(np.clip(w, rel_tol * wmax, None)), 0.0)
    return o_herm((u * inv) @ u.conj().T)


def o_entropy(w):
    w = np.asarray(w, dtype=float)
    w = w[w > 1e-12]
    if w.size == 0:
        return 0.0
    return max(0.0, float(-(w * np.log2(w)).sum()))


def o_log_inverse_sum(w):
    w = w[w > 0.0]
    return float(np.log2(1.0 / w).sum()) if w.size else 0.0


def o_eig_desc(m):
    w, u = np.linalg.eigh(o_herm(np.asarray(m, dtype=complex)))
    return w[::-1].copy(), u[:, ::-1].copy()


# ---------------------------------------------------------------------------
# Oracle: the lemma checks and generators, one instance at a time.
# ---------------------------------------------------------------------------


def o_gaussian(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def o_density(g):
    m = g @ g.conj().T
    return m / np.trace(m).real


def o_subunital(g):
    w, u = np.linalg.eigh(o_herm(g))
    w = np.clip(w, 0.0, 1.0)
    return o_herm((u * w) @ u.conj().T)


def o_positive(g, scale):
    return scale * (g @ g.conj().T) / g.shape[0]


def o_close_states(sigma, rho, effect):
    lhs = o_trace_pair(effect, rho) - o_trace_norm(sigma - rho)
    return o_trace_pair(effect, sigma) - lhs


def o_tender(rho, effect):
    lam = min(max(1.0 - o_trace_pair(rho, effect), 0.0), 1.0)
    root = o_matrix_sqrt(effect)
    return math.sqrt(8.0 * lam) - o_trace_norm(rho - root @ rho @ root)


def o_hayashi_nagaoka(s_op, t_op):
    eye = np.eye(s_op.shape[0])
    normalizer = o_pseudo_sqrt_inverse(s_op + t_op)
    left = eye - normalizer @ s_op @ normalizer
    right = 2.0 * (eye - s_op) + 4.0 * t_op
    return -float(np.linalg.eigvalsh(o_herm(left - right))[-1])


def o_trial(name, rng, dim):
    """The sweep's trial: draws in the old order, then the scalar check."""
    if name == "close-states":
        sigma, rho = o_density(o_gaussian(rng, dim)), o_density(o_gaussian(rng, dim))
        return o_close_states(sigma, rho, o_subunital(o_gaussian(rng, dim)))
    if name == "tender":
        rho = o_density(o_gaussian(rng, dim))
        return o_tender(rho, o_subunital(o_gaussian(rng, dim)))
    s_op = o_subunital(o_gaussian(rng, dim))
    scale = float(rng.uniform(0.0, 2.0))
    return o_hayashi_nagaoka(s_op, o_positive(o_gaussian(rng, dim), scale))


def o_sweep(name, trials, seed, dims):
    stream = dict(zip(lemmas._LEMMA_NAMES, np.random.SeedSequence(seed).spawn(3)))[name]
    out = []
    for child in stream.spawn(trials):
        rng = np.random.default_rng(child)
        dim = int(rng.choice(dims))
        out.append((dim, o_trial(name, rng, dim)))
    return out


def o_summary(name, rows):
    min_slack, worst, failures = math.inf, "", 0
    for i, (dim, slack) in enumerate(rows):
        if slack < min_slack:
            min_slack, worst = slack, f"{name}[{i}] dim={dim}"
        if not slack >= -1e-10:
            failures += 1
    return {
        "trials": len(rows),
        "min_slack": min_slack,
        "worst_instance": worst,
        "failures": failures,
        "all_hold": failures == 0,
    }


# ---------------------------------------------------------------------------
# Oracle: count windows, the recursive enumerators and the word sampler.
# ---------------------------------------------------------------------------


def o_count_window(length, target, tau):
    """Largest integer interval [lo, hi] with |k/length - target| <= tau."""

    def pred(k):
        return abs(k / length - target) <= tau

    lo = max(0, math.ceil(length * (target - tau)) - 1)
    hi = min(length, math.floor(length * (target + tau)) + 1)
    while lo > 0 and pred(lo - 1):
        lo -= 1
    while hi < length and pred(hi + 1):
        hi += 1
    while lo <= hi and not pred(lo):
        lo += 1
    while lo <= hi and not pred(hi):
        hi -= 1
    return lo, hi


def o_eigen_windows(eigenvalues, n, tau):
    # zero eigenvalues are excluded outright: their index may not appear
    return [(0, 0) if lam == 0.0 else o_count_window(n, float(lam), tau) for lam in eigenvalues]


def o_admissible_count_vectors(total, windows):
    """All integer vectors within the per-coordinate windows summing to total."""
    d = len(windows)
    suffix_lo = [0] * (d + 1)
    suffix_hi = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        lo, hi = windows[i]
        if lo > hi:
            return
        suffix_lo[i] = suffix_lo[i + 1] + lo
        suffix_hi[i] = suffix_hi[i + 1] + hi

    def rec(i, remaining, prefix):
        if i == d - 1:
            lo, hi = windows[i]
            if lo <= remaining <= hi:
                yield prefix + (remaining,)
            return
        lo, hi = windows[i]
        for k in range(max(lo, remaining - suffix_hi[i + 1]), min(hi, remaining - suffix_lo[i + 1]) + 1):
            yield from rec(i + 1, remaining - k, prefix + (k,))

    yield from rec(0, total, ())


def o_multinomial(n, counts):
    """n! / (c_1! ... c_d!), exact."""
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def o_weight_power(weights, counts):
    out = 1.0
    for w, k in zip(weights, counts):
        if k:
            if w <= 0.0:
                return 0.0
            out *= w**k
    return out


def o_simplex_lattice(resolution, d):
    def rec(i, remaining, prefix):
        if i == d - 1:
            yield prefix + (remaining,)
            return
        for k in range(remaining + 1):
            yield from rec(i + 1, remaining - k, prefix + (k,))

    yield from rec(0, resolution, ())


def o_typical_set(dist, n, delta):
    """(windows, count vectors, class masses, size, probability) of a typical
    set; each class's multinomial and weight power are computed once."""
    windows = [o_count_window(n, float(w), delta / len(dist.labels)) for w in dist.weights]
    vectors = list(o_admissible_count_vectors(n, windows))
    multinomials = [o_multinomial(n, c) for c in vectors]
    masses = [m * o_weight_power(dist.weights, c) for m, c in zip(multinomials, vectors)]
    return windows, vectors, masses, sum(multinomials), sum(masses)


def o_typical_member(dist, n, delta, word):
    counts = Counter(word)
    return all(abs(counts.get(a, 0) / n - float(w)) <= delta / len(dist.labels) for a, w in zip(dist.labels, dist.weights))


def o_sample_typical_word(rng, dist, n, delta, max_tries):
    d = len(dist.labels)
    for _ in range(max_tries):
        word = tuple(dist.labels[i] for i in rng.choice(d, size=n, p=dist.weights))
        if o_typical_member(dist, n, delta, word):
            return word
    raise AssertionError("no typical word drawn")


def o_within(index_word, d, windows):
    counts = Counter(index_word)
    return all(lo <= counts.get(i, 0) <= hi for i, (lo, hi) in enumerate(windows))


def o_descending_spectrum(rho):
    return np.linalg.eigh((rho + rho.conj().T) / 2)[0][::-1]


def o_state_included(rho, n, alpha, preset):
    w = _clean_eigenvalues(o_descending_spectrum(rho))
    windows = o_eigen_windows(w, n, threshold_for(alpha, n, preset))
    return frozenset(x for x in itertools.product(range(len(w)), repeat=n) if o_within(x, len(w), windows))


def o_conditional_included(channel, word, alpha, preset):
    d = channel.output_dim
    windows = {}
    for a, na in Counter(word).items():
        w = _clean_eigenvalues(o_descending_spectrum(channel.state(a)))
        windows[a] = o_eigen_windows(w, na, threshold_for(alpha, na, preset))
    return frozenset(
        x
        for x in itertools.product(range(d), repeat=len(word))
        if all(o_within([i for i, b in zip(x, word) if b == a], d, win) for a, win in windows.items())
    )


# ---------------------------------------------------------------------------
# Oracle: count-class loops and the per-instance report builders.
# ---------------------------------------------------------------------------


def o_spectrum_stats(eigenvalues, n, tau):
    w = _clean_eigenvalues(np.asarray(eigenvalues, dtype=float))
    capture, rank, lam_max = 0.0, 0, 0.0
    for counts in o_admissible_count_vectors(n, o_eigen_windows(w, n, tau)):
        m = o_multinomial(n, counts)
        p = o_weight_power(w, counts)
        capture += m * p
        rank += m
        if p > lam_max:
            lam_max = p
    return w, float(capture), int(rank), float(lam_max)


def o_state_report(rho, n, alpha, preset):
    d = rho.shape[0]
    tau = threshold_for(alpha, n, preset)
    w, _ = o_eig_desc(rho)
    w, capture, rank, lam_max = o_spectrum_stats(w, n, tau)
    entropy = o_entropy(w)
    c = o_log_inverse_sum(w)
    capture_ref = 1.0 - d / (4.0 * n * alpha**2)
    chebyshev = 1.0 - float((w * (1.0 - w)).sum()) / (n * tau**2)
    quarter = 1.0 - d / (4.0 * n * tau**2)
    counting_exp = n * (entropy + tau * c)
    equip_exp = -n * (entropy - tau * c)
    log_rank = math.log2(rank) if rank > 0 else None
    log_lmax = math.log2(lam_max) if lam_max > 0.0 else None
    denom = d * alpha * math.sqrt(n)
    k_count = max(0.0, (log_rank - n * entropy) / denom) if log_rank is not None else 0.0
    k_equip = max(0.0, (log_lmax + n * entropy) / denom) if log_lmax is not None else 0.0
    return {
        "kind": "state",
        "params": {
            "d": d, "n": n, "alpha": float(alpha), "tau": tau, "preset": preset,
            "entropy_bits": entropy, "log_inverse_sum": c,
        },
        "measured": {"capture": capture, "rank": rank, "lambda_max": lam_max},
        "reference_bounds": {"capture": capture_ref},
        "provable_bounds": {
            "capture_chebyshev": chebyshev, "capture_quarter": quarter,
            "counting_log2": counting_exp, "equipartition_log2": equip_exp,
        },
        "flags": {
            "reference_capture": bool(capture >= capture_ref - 1e-12),
            "provable_capture_chebyshev": bool(capture >= chebyshev - 1e-12),
            "provable_capture_quarter": bool(capture >= quarter - 1e-12),
            "provable_counting": bool(log_rank is None or log_rank <= counting_exp + 1e-9),
            "provable_equipartition": bool(log_lmax is None or log_lmax <= equip_exp + 1e-9),
        },
        "empirical_K": max(k_count, k_equip),
    }


def o_cross(channel, word, dist, alpha, preset):
    n = len(word)
    w, u = o_eig_desc(output_state(channel, dist))
    w = _clean_eigenvalues(w)
    d = len(w)
    tau = threshold_for(alpha * math.sqrt(len(channel.alphabet)), n, preset)
    windows = o_eigen_windows(w, n, tau)
    class_counts = Counter(word)
    diag = {
        a: np.clip(np.real(np.einsum("ij,jk,ki->i", u.conj().T, channel.state(a), u)), 0.0, None)
        for a in class_counts
    }
    dist_map = {(0,) * d: 1.0}
    for a, na in class_counts.items():
        terms = []
        for counts in o_admissible_count_vectors(na, [(0, na)] * d):
            p = o_weight_power(diag[a], counts)
            if p > 0.0:
                terms.append((counts, o_multinomial(na, counts) * p))
        new_map = {}
        for base, pb in dist_map.items():
            for counts, pc in terms:
                key = tuple(b + c for b, c in zip(base, counts))
                new_map[key] = new_map.get(key, 0.0) + pb * pc
        dist_map = new_map
    capture = sum(
        p for counts, p in dist_map.items() if all(lo <= k <= hi for k, (lo, hi) in zip(counts, windows))
    )
    mean = np.zeros(d)
    var = 0.0
    for a, na in class_counts.items():
        mean += na * diag[a]
        var += float((na * diag[a] * (1.0 - diag[a])).sum())
    shift = float(np.max(np.abs(mean / n - w))) if d else 0.0
    return tau, capture, var, shift


def o_conditional_report(channel, word, dist, alpha, preset):
    word = tuple(word)
    n = len(word)
    d = channel.output_dim
    a_size = len(channel.alphabet)
    class_counts = dict(Counter(word))
    capture, rank, lam_max = 1.0, 1, 1.0
    cheb_sum = quarter_sum = counting_exp = 0.0
    emp_terms = []
    for a, na in class_counts.items():
        tau_a = threshold_for(alpha, na, preset)
        # the spectrum of the letter's density check, descending
        wa, c_a, r_a, l_a = o_spectrum_stats(np.linalg.eigvalsh(o_herm(channel.state(a)))[::-1], na, tau_a)
        capture *= c_a
        rank *= r_a
        lam_max *= l_a
        cheb_sum += float((wa * (1.0 - wa)).sum()) / (na * tau_a**2)
        quarter_sum += d / (4.0 * na * tau_a**2)
        counting_exp += na * (o_entropy(wa) + tau_a * o_log_inverse_sum(wa))
        emp_terms.append(na * o_entropy(wa))
    if rank == 0:
        lam_max = capture = 0.0
    emp_cond_entropy = sum(emp_terms) / n
    equip_exp = counting_exp - 2.0 * n * emp_cond_entropy
    cond_entropy_true = 0.0
    for a, wgt in zip(dist.labels, dist.weights):
        if wgt > 0.0:
            cond_entropy_true += wgt * o_entropy(np.linalg.eigvalsh(o_herm(channel.state(a))))
    capture_ref = 1.0 - a_size * d / (4.0 * n * alpha**2)
    cross_tau, cross_capture, variance_sum, mean_shift = o_cross(channel, word, dist, alpha, preset)
    type_counts = Counter(word)
    exact_type = all(
        abs(type_counts.get(a, 0) - n * wgt) <= 1e-9 for a, wgt in zip(dist.labels, dist.weights)
    )
    cross_provable = 1.0 - variance_sum / (n * cross_tau) ** 2 if exact_type else None
    log_rank = math.log2(rank) if rank > 0 else None
    log_lmax = math.log2(lam_max) if lam_max > 0.0 else None
    denom = a_size * d * alpha * math.sqrt(n)
    k_count = max(0.0, (log_rank - n * cond_entropy_true) / denom) if log_rank is not None else 0.0
    k_equip = max(0.0, (log_lmax + n * cond_entropy_true) / denom) if log_lmax is not None else 0.0
    flags = {
        "reference_capture": bool(capture >= capture_ref - 1e-12),
        "provable_capture_chebyshev": bool(capture >= 1.0 - cheb_sum - 1e-12),
        "provable_capture_quarter": bool(capture >= 1.0 - quarter_sum - 1e-12),
        "provable_counting": bool(log_rank is None or log_rank <= counting_exp + 1e-9),
        "provable_equipartition": bool(log_lmax is None or log_lmax <= equip_exp + 1e-9),
        "reference_cross_capture": bool(cross_capture >= capture_ref - 1e-12),
    }
    if cross_provable is not None:
        flags["provable_cross_capture"] = bool(cross_capture >= cross_provable - 1e-12)
    return {
        "kind": "conditional",
        "params": {
            "d": d, "a": a_size, "n": n, "alpha": float(alpha), "preset": preset,
            "word_type": {str(k): v for k, v in sorted(type_counts.items(), key=lambda kv: str(kv[0]))},
            "exact_type": exact_type,
            "conditional_entropy_bits": cond_entropy_true,
            "empirical_conditional_entropy_bits": emp_cond_entropy,
            "cross_tau": cross_tau,
        },
        "measured": {
            "capture": capture, "rank": rank, "lambda_max": lam_max,
            "cross_capture": cross_capture, "cross_mean_shift": mean_shift,
        },
        "reference_bounds": {"capture": capture_ref, "cross_capture": capture_ref},
        "provable_bounds": {
            "capture_chebyshev": 1.0 - cheb_sum, "capture_quarter": 1.0 - quarter_sum,
            "counting_log2": counting_exp, "equipartition_log2": equip_exp,
            "cross_capture": cross_provable,
        },
        "flags": flags,
        "empirical_K": max(k_count, k_equip),
    }


def assert_reports_equal(got, want):
    """Every field equal; the cross capture within CROSS_TOL."""
    got = dict(got, measured=dict(got["measured"]))
    want = dict(want, measured=dict(want["measured"]))
    if "cross_capture" in want["measured"]:
        assert abs(got["measured"].pop("cross_capture") - want["measured"].pop("cross_capture")) <= CROSS_TOL
    assert got == want


# ---------------------------------------------------------------------------
# Degenerate operators.
# ---------------------------------------------------------------------------


def pure_state(rng, dim):
    v = o_gaussian(rng, dim)[:, :1]
    v = v / np.linalg.norm(v)
    return v @ v.conj().T


def rank_deficient_state(rng, dim):
    g = o_gaussian(rng, dim)[:, : max(1, dim // 2)]
    m = g @ g.conj().T
    return m / np.trace(m).real


def projector(rng, dim, rank):
    q, _ = np.linalg.qr(o_gaussian(rng, dim))
    return o_herm(q[:, :rank] @ q[:, :rank].conj().T)


# ---------------------------------------------------------------------------
# Lemma sweeps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_summaries_match_the_scalar_sweep(seed):
    for name in lemmas._LEMMA_NAMES:
        want = o_summary(name, o_sweep(name, 150, seed, DIMS))
        assert sweep_lemma_checks(trials=150, seed=seed, which=(name,))[name] == want


def test_default_sweep_summary_matches_the_scalar_sweep():
    summary = sweep_lemma_checks()
    for name in lemmas._LEMMA_NAMES:
        assert summary[name] == o_summary(name, o_sweep(name, 1000, 20240801, DIMS))


def l_trial(name, rng, dim):
    """A sweep trial through the library's generators and checks."""
    if name == "close-states":
        args = (random_density(rng, dim), random_density(rng, dim), random_subunital_positive(rng, dim))
        return check_measurement_on_close_states(*args).slack
    if name == "tender":
        return check_tender_operator(random_density(rng, dim), random_subunital_positive(rng, dim)).slack
    s_op = random_subunital_positive(rng, dim)
    return check_hayashi_nagaoka(s_op, random_positive(rng, dim, float(rng.uniform(0.0, 2.0)))).slack


@pytest.mark.parametrize("seed", SEEDS)
def test_every_trial_slack_matches_the_scalar_checks(seed):
    streams = dict(zip(lemmas._LEMMA_NAMES, np.random.SeedSequence(seed).spawn(3)))
    for name, stream in streams.items():
        for child in stream.spawn(150):
            rng, again = np.random.default_rng(child), np.random.default_rng(child)
            dim = int(rng.choice(DIMS))
            assert int(again.choice(DIMS)) == dim
            assert l_trial(name, rng, dim) == o_trial(name, again, dim)


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_builders_match_one_generator_call_at_a_time(dim):
    # the sweep and the projector reports build their operators in stacks
    # and must see the numbers, in the order, one generator call each takes
    scales = np.linspace(0.0, 2.0, 4)
    for build, oracle in (
        (densities, lambda g, _: o_density(g)),
        (subunital_effects, lambda g, _: o_subunital(g)),
        (lambda draws: scaled_positives(draws, scales[:, None]), o_positive),
    ):
        rng, again = np.random.default_rng(dim), np.random.default_rng(dim)
        stack = build(np.array([gaussian_draws(rng, dim, count=2) for _ in scales]))
        want = [[oracle(o_gaussian(again, dim), c) for _ in range(2)] for c in scales]
        assert np.array_equal(stack, np.array(want))
    rng, again = np.random.default_rng(dim), np.random.default_rng(dim)
    assert np.array_equal(random_density(rng, dim), o_density(o_gaussian(again, dim)))
    assert np.array_equal(random_subunital_positive(rng, dim), o_subunital(o_gaussian(again, dim)))
    assert np.array_equal(random_positive(rng, dim, 1.5), o_positive(o_gaussian(again, dim), 1.5))


def test_sweep_blocks_do_not_change_the_summary(monkeypatch):
    want = {name: o_summary(name, o_sweep(name, 40, 7, DIMS)) for name in lemmas._LEMMA_NAMES}
    for block in (1, 3, 40, 1000):
        monkeypatch.setattr(lemmas, "SWEEP_BLOCK", block)
        assert sweep_lemma_checks(trials=40, seed=7) == want


def test_sweep_draws_each_trial_dimension_like_choice():
    dims = (2, 3, 4, 5, 6, 7, 8)
    for child in np.random.SeedSequence(99).spawn(500):
        choice = int(np.random.default_rng(child).choice(dims))
        assert dims[int(np.random.default_rng(child).integers(0, len(dims)))] == choice


@pytest.mark.parametrize("dim", DIMS)
def test_degenerate_lemma_instances_match_the_scalar_checks(dim):
    rng = np.random.default_rng(dim)
    rhos = [pure_state(rng, dim), rank_deficient_state(rng, dim), o_density(o_gaussian(rng, dim))]
    sigmas = [o_density(o_gaussian(rng, dim)), pure_state(rng, dim), rhos[0]]
    effects = [projector(rng, dim, 1), projector(rng, dim, dim - 1), np.zeros((dim, dim), dtype=complex)]
    t_ops = [np.zeros((dim, dim)), o_positive(o_gaussian(rng, dim)[:, :1], 0.3), np.zeros((dim, dim))]
    s_ops = [effects[0], effects[1], np.eye(dim) * 0.5]
    for sigma, rho, effect in zip(sigmas, rhos, effects):
        assert check_measurement_on_close_states(sigma, rho, effect).slack == o_close_states(sigma, rho, effect)
        assert check_tender_operator(rho, effect).slack == o_tender(rho, effect)
    for s_op, t_op in zip(s_ops, t_ops):
        assert check_hayashi_nagaoka(s_op, t_op).slack == o_hayashi_nagaoka(s_op, t_op)


# ---------------------------------------------------------------------------
# Operator routines: stacks, failures and 2-D results.
# ---------------------------------------------------------------------------


def test_plain_matrix_results_equal_the_scalar_routines():
    rng = np.random.default_rng(3)
    for dim in (1,) + DIMS:
        mats = [
            o_density(o_gaussian(rng, dim)),
            rank_deficient_state(rng, dim),
            pure_state(rng, dim),
            np.zeros((dim, dim), dtype=complex),
            o_positive(o_gaussian(rng, dim), 1.7),
        ]
        for m in mats:
            assert np.array_equal(pseudo_sqrt_inverse(m), o_pseudo_sqrt_inverse(m))
            assert np.array_equal(matrix_sqrt(m), o_matrix_sqrt(m))
            assert trace_norm(m - mats[0]) == o_trace_norm(m - mats[0])
            assert trace_pair(m, mats[0]) == o_trace_pair(m, mats[0])
        stack = np.array(mats)
        assert np.array_equal(pseudo_sqrt_inverse(stack), np.array([o_pseudo_sqrt_inverse(m) for m in mats]))
        assert np.array_equal(matrix_sqrt(stack), np.array([o_matrix_sqrt(m) for m in mats]))
        assert trace_norm(stack).tolist() == [o_trace_norm(m) for m in mats]
        spectra = np.linalg.eigvalsh(stack)
        assert spectrum_entropy_bits(spectra).tolist() == [o_entropy(w) for w in spectra]


def test_stack_failures_name_the_first_bad_matrix():
    good = np.array([np.eye(3) / 3] * 6, dtype=complex)
    bad = good.copy()
    bad[4] = np.diag([1.2, -0.1, -0.1])
    bad[5] = np.diag([1.2, -0.1, -0.1])
    with pytest.raises(InvalidInputError, match=r"state\[4\] has negative eigenvalue"):
        checked_operator(bad, "state", density=True)
    bad = good.copy()
    bad[2, 0, 0] = 0.5
    with pytest.raises(InvalidInputError, match=r"state\[2\] has trace"):
        checked_operator(bad, "state", density=True)
    bad = good.copy()
    bad[3, 0, 1] = 0.2
    with pytest.raises(InvalidInputError, match=r"matrix\[3\] is not Hermitian"):
        _hermitian(bad, "matrix")
    bad = good.copy()
    bad[1, 2, 2] = np.nan
    with pytest.raises(InvalidInputError, match=r"matrix\[1\] has non-finite entries"):
        as_square_matrix(bad)
    bad = good.reshape(2, 3, 3, 3).copy()
    bad[1, 0] = np.diag([1.5, 0.0, 0.0])
    with pytest.raises(InvalidInputError, match=r"effect\[1, 0\] exceeds the identity"):
        checked_operator(bad, "effect", sub_unital=True)
    # a plain matrix keeps its plain name
    with pytest.raises(InvalidInputError, match=r"^state has negative eigenvalue"):
        checked_operator(np.diag([1.2, -0.2]), "state", density=True)


# ---------------------------------------------------------------------------
# Projector reports.
# ---------------------------------------------------------------------------


def test_spectrum_stats_stack_matches_the_class_loop():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4):
        for n in (1, 2, 5, 9, 40):
            spectra = np.sort(rng.dirichlet(np.ones(d), size=6), axis=1)[:, ::-1].copy()
            spectra[0, -1] = 0.0
            spectra[1] = 0.0
            spectra[1, 0] = 1.0
            taus = rng.uniform(0.02, 0.6, size=6)
            got = spectrum_projector_stats(spectra, n, taus)
            for s in range(6):
                _, capture, rank, lam_max = o_spectrum_stats(spectra[s], n, taus[s])
                assert (got.capture[s], got.rank[s], got.lambda_max[s]) == (capture, rank, lam_max)
                one = spectrum_projector_stats(spectra[s], n, taus[s])
                assert (one.capture, one.rank, one.lambda_max) == (capture, rank, lam_max)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", [PRESET_FIXED, PRESET_SQRT])
def test_state_reports_match_the_scalar_builder(seed, preset):
    rng = np.random.default_rng(seed)
    for dim in DIMS:
        states = [o_density(o_gaussian(rng, dim)) for _ in range(3)]
        states += [pure_state(rng, dim), rank_deficient_state(rng, dim)]
        for n in (2, 5) if dim > 4 else (2, 5, 9):
            for alpha in (0.5, 2.0):
                reports = verify_state_projector_bounds(np.array(states), n, alpha, preset)
                for rho, report in zip(states, reports):
                    assert report.as_dict() == o_state_report(rho, n, alpha, preset)
                one = verify_state_projector_bounds(states[0], n, alpha, preset)
                assert one.as_dict() == reports[0].as_dict()


def random_channel(rng, labels, dim, degenerate=False):
    make = rank_deficient_state if degenerate else (lambda r, d: o_density(o_gaussian(r, d)))
    return CQChannel(labels, {a: make(rng, dim) for a in labels})


def letter_stack(channels, labels):
    """The (S, |A|, d, d) stack of the channels' letter states, in label order."""
    return np.array([[ch.state(a) for a in labels] for ch in channels])


@pytest.mark.parametrize("seed", SEEDS)
def test_conditional_reports_match_the_scalar_builder(seed):
    rng = np.random.default_rng(seed)
    binary = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    ternary = ProbabilityDistribution(("a", "b", "c"), np.array([0.5, 0.3, 0.2]))
    for dim in DIMS:
        for dist, ns in ((binary, (2, 4, 6) if dim < 6 else (2, 4)), (ternary, (3, 5) if dim < 6 else (3,))):
            for n in ns:
                channels = [random_channel(rng, dist.labels, dim, degenerate=i == 3) for i in range(4)]
                # orthogonal pure letter states: zero eigenvalues in every window
                channels.append(CQChannel(dist.labels, {a: np.diag(np.eye(dim)[i % dim]) for i, a in enumerate(dist.labels)}))
                words = [tuple(rng.choice(dist.labels, size=n, p=dist.weights)) for _ in channels]
                # one word of exactly the distribution's type, where one exists
                exact = [a for a, w in zip(dist.labels, dist.weights) for _ in range(round(n * w))]
                if len(exact) == n:
                    words[0] = tuple(exact)
                for alpha in (0.5, 1.0):
                    preset = PRESET_SQRT if alpha == 1.0 else PRESET_FIXED
                    states = letter_stack(channels, dist.labels)
                    reports = verify_conditional_projector_bounds(states, words, dist, alpha, preset)
                    for ch, word, report in zip(channels, words, reports):
                        assert_reports_equal(report.as_dict(), o_conditional_report(ch, word, dist, alpha, preset))


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_the_scalar_builder_where_only_the_grace_holds(seed):
    # at alpha = 1e8 every count class is admitted and the capture references
    # round to 1, while the captures sum to just under 1: the capture flags
    # then hold only through their grace
    rng = np.random.default_rng(seed)
    binary = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    below = {"state": 0, "conditional": 0, "cross": 0}
    for dim in (2, 3, 4):
        for _ in range(4):
            rho = o_density(o_gaussian(rng, dim))
            for n in (3, 5):
                report = verify_state_projector_bounds(rho, n, 1e8).as_dict()
                assert report == o_state_report(rho, n, 1e8, PRESET_FIXED)
                below["state"] += report["measured"]["capture"] < report["provable_bounds"]["capture_quarter"]
        channels = [random_channel(rng, binary.labels, dim) for _ in range(4)]
        words = [tuple(rng.choice(binary.labels, size=4)) for _ in channels]
        states = letter_stack(channels, binary.labels)
        reports = verify_conditional_projector_bounds(states, words, binary, 1e8, PRESET_FIXED)
        for ch, word, report in zip(channels, words, reports):
            report = report.as_dict()
            assert_reports_equal(report, o_conditional_report(ch, word, binary, 1e8, PRESET_FIXED))
            below["conditional"] += report["measured"]["capture"] < report["reference_bounds"]["capture"]
            below["cross"] += report["measured"]["cross_capture"] < report["reference_bounds"]["cross_capture"]
    assert min(below.values()) > 0


def test_cross_capture_merges_letter_classes_like_the_convolution():
    rng = np.random.default_rng(2)
    dist = ProbabilityDistribution(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    # the last word has dist's exact type, so its report carries the
    # variance sum in its provable cross bound
    words = (("a", "b", "c", "c", "b", "a", "c"), ("c",) * 5 + ("a",), ("b", "a", "b"), tuple("cbacbcacbc"))
    for dim in (2, 3, 4):
        ch = random_channel(rng, dist.labels, dim)
        for word in words:
            for alpha in (0.3, 1.0):
                got = verify_conditional_projector_bounds(ch, word, dist, alpha)
                tau, capture, var, shift = o_cross(ch, word, dist, alpha, PRESET_FIXED)
                assert (got.params["cross_tau"], got.measured["cross_mean_shift"]) == (tau, shift)
                assert abs(got.measured["cross_capture"] - capture) <= CROSS_TOL
                if got.params["exact_type"]:
                    assert got.provable_bounds["cross_capture"] == 1.0 - var / (len(word) * tau) ** 2
        assert got.params["exact_type"]


def test_sweeps_need_at_least_one_trial():
    with pytest.raises(InvalidInputError):
        sweep_lemma_checks(trials=0)
    with pytest.raises(InvalidInputError):
        sweep_lemma_checks(trials=-3)


def o_count_law_mass(q, allowed):
    """The windowed mass of the eigen-index counts, summed over all d^n
    index words: q[k] is position k's index distribution."""
    n, d = q.shape
    words = np.indices((d,) * n).reshape(n, -1).T
    probs = q[np.arange(n), words].prod(axis=1)
    counts = (words[:, :, None] == np.arange(d)).sum(axis=1)
    return math.fsum(probs[allowed[np.arange(d), counts].all(axis=1)].tolist())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_count_law_matches_the_index_word_enumeration(d):
    # words of three letter classes, of sizes 3, 2 and 2, in mixed order;
    # one spectrum has a zero eigenvalue, whose index must count 0
    rng = np.random.default_rng(30 + d)
    word = (0, 1, 2, 0, 1, 0, 2)
    n = len(word)
    letters = rng.dirichlet(np.ones(d), size=(4, 3))
    q = letters[:, word]
    w = np.sort(rng.dirichlet(np.ones(d), size=4))[:, ::-1]
    w[1, -1] = 0.0
    allowed = typicality._eigen_allowed(w, n, np.array([0.1, 0.2, 0.3, 1.0]))
    got = typicality._count_law_masses(q, allowed)
    for s in range(4):
        assert got[s] == pytest.approx(o_count_law_mass(q[s], allowed[s]), rel=1e-12, abs=1e-15)


def test_count_law_goes_past_the_float_range_of_the_multinomials():
    # at n = 1100 with d = 2 the count-class multinomials pass 1e308, and the
    # law is the binomial one: summed in log space from lgamma
    n, p = 1100, 0.69
    allowed = typicality._eigen_allowed(np.array([[0.7, 0.3]]), n, threshold_for(0.5, n, PRESET_SQRT))
    got = typicality._count_law_masses(np.full((1, n, 2), [p, 1.0 - p]), allowed)
    inside = [k for k in range(n + 1) if allowed[0, 0, k] and allowed[0, 1, n - k]]
    log_terms = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in inside
    ]
    want = math.fsum(math.exp(t) for t in log_terms)
    assert 0.1 < want < 1.0
    assert got[0] == pytest.approx(want, rel=1e-12)


def test_cross_capture_in_instance_chunks_matches_one_pass(monkeypatch):
    # a working set this small forces the count law to take the instances
    # one at a time
    rng = np.random.default_rng(4)
    dist = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    channels = [random_channel(rng, dist.labels, 3) for _ in range(5)]
    words = [("0", "1", "1", "0", "0", "1")] * 5
    states = letter_stack(channels, dist.labels)
    whole = verify_conditional_projector_bounds(states, words, dist, 0.5)
    monkeypatch.setattr(typicality, "COUNT_WORKING_BYTES", 4096)
    chunked = verify_conditional_projector_bounds(states, words, dist, 0.5)
    assert [r.as_dict() for r in chunked] == [r.as_dict() for r in whole]


def test_spectrum_stats_in_chunks_match_one_pass(monkeypatch):
    # a working set this small forces the spectra to be scored two at a
    # time against the (9, 3) table
    rng = np.random.default_rng(5)
    spectra = np.sort(rng.dirichlet(np.ones(3), size=7), axis=1)[:, ::-1].copy()
    taus = rng.uniform(0.05, 0.5, size=7)
    whole = spectrum_projector_stats(spectra, 9, taus)
    monkeypatch.setattr(typicality, "COUNT_WORKING_BYTES", 4096)
    chunked = spectrum_projector_stats(spectra, 9, taus)
    assert chunked.capture.tolist() == whole.capture.tolist()
    assert chunked.rank.tolist() == whole.rank.tolist()
    assert chunked.lambda_max.tolist() == whole.lambda_max.tolist()


def test_sweep_reports_the_first_trial_of_a_tie(monkeypatch):
    # every trial ties: a trial-ordered scan keeps the first
    tie = lemmas.LemmaCheckResult(lhs=0.0, rhs=0.5, slack=0.5, holds=True)
    monkeypatch.setattr(lemmas, "check_tender_operator", lambda *args: tie)
    summary = sweep_lemma_checks(trials=5, seed=7, which=("tender",))["tender"]
    assert summary["worst_instance"].startswith("tender[0] ")


def test_projector_reports_see_the_one_instance_draws(monkeypatch):
    # each report call gets one dimension's instances of an (n, alpha)
    # group: the states and words a one-instance loop draws, in its order
    from cqrelay import cli

    ns, alphas, instances, seed = (2, 4), (0.5, 1.0), 5, 3
    monkeypatch.setattr(cli, "_PROJECTOR_INSTANCES", instances)
    calls = []
    real_state, real_cond = typicality.verify_state_projector_bounds, typicality.verify_conditional_projector_bounds

    def state(states, n, alpha, preset):
        calls.append(("state", np.array(states)))
        return real_state(states, n, alpha, preset)

    def cond(states, words, dist, alpha, preset):
        calls.append(("cond", np.array(states), list(words)))
        return real_cond(states, words, dist, alpha, preset)

    monkeypatch.setattr(typicality, "verify_state_projector_bounds", state)
    monkeypatch.setattr(typicality, "verify_conditional_projector_bounds", cond)
    cli._verify_projectors(ns, alphas, "fixed", seed)

    state_stream, cond_stream = np.random.SeedSequence(seed).spawn(2)
    dims = [2 if i % 2 == 0 else 3 for i in range(instances)]
    want = []
    rng = np.random.default_rng(state_stream)
    for _ in ns:
        for _ in alphas:
            drawn = [o_density(o_gaussian(rng, dim)) for dim in dims]
            want += [("state", np.array(drawn[0::2])), ("state", np.array(drawn[1::2]))]
    rng = np.random.default_rng(cond_stream)
    dist = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
    for n in ns:
        for _ in alphas:
            drawn = []
            for dim in dims:
                letters = [o_density(o_gaussian(rng, dim)) for _ in range(2)]
                drawn.append((letters, o_sample_typical_word(rng, dist, n, 0.5, 10_000)))
            for part in (drawn[0::2], drawn[1::2]):
                want.append(("cond", np.array([letters for letters, _ in part]), [word for _, word in part]))
    assert len(calls) == len(want)
    for got, exp in zip(calls, want):
        assert got[0] == exp[0] and np.array_equal(got[1], exp[1])
        assert got[2:] == exp[2:]


# ---------------------------------------------------------------------------
# Count-class enumeration and the window predicate.
# ---------------------------------------------------------------------------


def random_typical_case(rng):
    """(dist, n, delta) with zero weights, d = 1, empty windows and
    thresholds that sit exactly on a count in real arithmetic."""
    d = int(rng.integers(1, 5))
    n = int(rng.integers(1, 30))
    kind = rng.integers(4)
    if kind == 0:
        weights = rng.dirichlet(np.ones(d))
    elif kind == 1:
        weights = rng.dirichlet(np.ones(d))
        weights[rng.integers(d)] = 0.0
        weights = weights / weights.sum() if weights.sum() > 0 else np.eye(d)[0]
    else:
        # weights k/m and thresholds j/n: window edges fall on counts
        m = int(rng.integers(1, 2 * n + 1))
        weights = rng.multinomial(m, np.ones(d) / d) / m
    delta = d * (int(rng.integers(1, n + 1)) / n if kind == 3 else float(rng.choice([0.01, 0.05, 0.1, 0.3, 0.7, 2.0])))
    labels = tuple("abcd"[:d])
    return ProbabilityDistribution(labels, weights), n, delta


@pytest.mark.parametrize("seed", SEEDS)
def test_typical_sets_match_the_recursive_enumeration(seed):
    rng = np.random.default_rng(seed)
    empty = 0
    for _ in range(600):
        dist, n, delta = random_typical_case(rng)
        tset = TypicalSet(dist, n, delta)
        windows, vectors, masses, size, probability = o_typical_set(dist, n, delta)
        classes = tset.type_classes()
        assert tset.count_windows() == windows
        assert [counts for counts, _ in classes] == vectors
        assert [mass for _, mass in classes] == masses
        assert tset.size() == size
        assert tset.probability() == probability
        assert (tset.size() == 0) == (not vectors)
        empty += not vectors
        if len(dist.labels) ** n <= 300:
            for word in itertools.product(dist.labels, repeat=n):
                assert (word in tset) == o_typical_member(dist, n, delta, word)
    assert empty > 0


def test_typical_set_sample_makes_the_choice_draws():
    dists = [
        np.array([0.5, 0.5]),
        np.array([0.3, 0.7]),
        np.array([1.0]),
        np.array([0.2, 0.0, 0.8]),
        np.array([0.1, 0.2, 0.3, 0.4]),
        np.array([0.25, 0.25, 0.5, 0.0]),
    ]
    for weights in dists:
        dist = ProbabilityDistribution(tuple(range(len(weights))), weights)
        for seed in range(50):
            tset = TypicalSet(dist, 7, 0.5)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = [tset.sample(got_rng, 10_000) for _ in range(3)]
            want = [o_sample_typical_word(want_rng, dist, 7, 0.5, 10_000) for _ in range(3)]
            assert got == want
            assert got_rng.random() == want_rng.random()


def test_compositions_match_the_recursive_lattice_and_the_multinomials():
    for d in range(1, 6):
        for n in (0, 1, 2, 5, 9):
            rows = compositions(n, d)
            assert [tuple(r) for r in rows.tolist()] == list(o_simplex_lattice(n, d))
            if n:
                table = _count_table(n, d)
                assert np.array_equal(table.counts, rows)
                assert table.multinomials.tolist() == [o_multinomial(n, r) for r in rows.tolist()]
    # each side of the int64 / Python-int switch (n log2(d) < 63)
    for n, d in ((62, 2), (63, 2), (39, 3), (40, 3)):
        table = _count_table(n, d)
        assert table.multinomials.dtype == (np.int64 if n * math.log2(d) < 63 else object)
        assert table.multinomials.tolist() == [o_multinomial(n, r) for r in compositions(n, d).tolist()]
        assert table.weights.tolist() == [float(o_multinomial(n, r)) for r in compositions(n, d).tolist()]
    for bad in ((-1, 2), (3, 0)):
        with pytest.raises(InvalidInputError):
            compositions(*bad)


def test_grid_weight_matrices_match_the_recursive_lattice():
    for d in range(1, 6):
        for resolution in (1, 2, 3, 7, 12):
            got = DistributionGrid(tuple(range(d)), resolution).weight_matrix()
            want = np.array(list(o_simplex_lattice(resolution, d)), dtype=float) / resolution
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_projector_index_sets_match_the_count_windows(seed):
    rng = np.random.default_rng(seed)
    labels = ("0", "1")
    for case in range(40):
        dim = 2 if case % 2 else 3
        n = int(rng.integers(1, 6 if dim == 2 else 5))
        preset = PRESET_FIXED if case % 3 else PRESET_SQRT
        alpha = float(rng.choice([0.05, 0.2, 0.5, 1.0, 2.0]))
        rho = rank_deficient_state(rng, dim) if case % 4 == 0 else o_density(o_gaussian(rng, dim))
        # the rows come in product-basis order, the column order of
        # included_vectors and sandwiched_factor
        words = list(itertools.product(range(dim), repeat=n))
        got = typical_projector(rho, n, alpha, preset).index_words()
        want = o_state_included(rho, n, alpha, preset)
        assert list(map(tuple, got.tolist())) == [w for w in words if w in want]
        ch = random_channel(rng, labels, dim, degenerate=case % 5 == 0)
        word = tuple(rng.choice(labels, size=n).tolist())
        got = conditional_typical_projector(ch, word, alpha, preset).index_words()
        want = o_conditional_included(ch, word, alpha, preset)
        assert list(map(tuple, got.tolist())) == [w for w in words if w in want]
