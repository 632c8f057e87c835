"""Dense oracle for the square-root measurement.

The decoder normalizes each side-information group on the K x K Gram matrix
of its stacked detection factors.  The oracle is the direct N x N
construction: S = sum_i D_i, S^{-1/2} from pseudo_sqrt_inverse,
Lambda_i = S^{-1/2} D_i S^{-1/2}, and the sub-POVM margin from an N x N
eigvalsh of sum_i Lambda_i - I.  Every figure the pipeline reports must agree
with it within 1e-12.

A channel whose letter states have no imaginary part runs in float64 from its
state table to its decoder; its phase twin, the same states conjugated by a
diagonal phase unitary, runs the same problem in complex128 and must give the
same figures within 1e-12.
"""

import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqrelay.channels import (
    BroadcastCQChannel,
    CQChannel,
    depolarized_channel,
    holevo_chi,
    load_channel,
    orthogonal_pure_channel,
    product_broadcast_channel,
)
from cqrelay import coding
from cqrelay.coding import (
    Codebook,
    SquareRootDecoder,
    _side_info_groups,
    _word_factors,
    average_errors,
    build_square_root_decoder,
    decode_with_side_info,
    end_to_end_broadcast_sim,
    sample_codebook,
)
from cqrelay.lemmas import random_density
from cqrelay.operators import (
    REPORT_RTOL,
    ProbabilityDistribution,
    hermitian_part,
    product_columns,
    pseudo_sqrt_inverse,
    tensor_all,
    trace_pair,
)
from cqrelay.typicality import averaged_state_projector

TOL = 1e-12
NS = (4, 6, 8)


def uniform_binary():
    return ProbabilityDistribution.uniform(("0", "1"))


def canonical_broadcast():
    return product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2))


def random_broadcast():
    # two random qubit channels whose output states do not commute
    rng = np.random.default_rng(5)
    c1, c2 = (
        CQChannel(("0", "1"), {"0": random_density(rng, 2), "1": random_density(rng, 2)})
        for _ in range(2)
    )
    return product_broadcast_channel(c1, c2)


CHANNELS = {"canonical": canonical_broadcast, "random": random_broadcast}


def test_random_broadcast_is_not_commuting():
    bc = random_broadcast()
    for r in (1, 2):
        marg = bc.marginal(r)
        a, b = marg.state("0"), marg.state("1")
        assert np.abs(a @ b - b @ a).max() > 1e-2


def dense_srm(ops):
    total = sum(ops)
    inv_root = pseudo_sqrt_inverse(total)
    lams = [hermitian_part(inv_root @ d @ inv_root) for d in ops]
    acc = sum(lams) - np.eye(total.shape[0])
    return lams, float(np.linalg.eigvalsh(hermitian_part(acc))[-1])


def factor_path():
    # every receiver on the factor path, whatever its letters
    return mock.patch.object(coding, "_diagonal_orders", return_value=None)


def factor_decoder(cb, bc, **kwargs):
    """The public builder's decoder with every receiver on the factor path."""
    with factor_path():
        return build_square_root_decoder(cb, bc, **kwargs)


def detection_factors(dec):
    """receiver -> {(m1, m2): detection factor F}, read from the groups of a
    factor-path decoder."""
    return {
        r: {
            pair: f
            for known, pairs in _side_info_groups(r, dec.m1_size, dec.m2_size).items()
            for pair, f in zip(pairs, dec.group(r, known).factors)
        }
        for r in (1, 2)
    }


def dense_op(factor):
    """Dense F F† of a factor F, as its Hermitian part."""
    return hermitian_part(factor @ factor.conj().T)


def detection_op(factors, r, pair):
    """Dense D' = F F† of the pair's detection factor."""
    return dense_op(factors[r][pair])


def dense_decoder(cb, factors):
    ops, margins = {1: {}, 2: {}}, {1: {}, 2: {}}
    for m2 in range(cb.m2_size):
        pairs = [(m1, m2) for m1 in range(cb.m1_size)]
        lams, margins[1][m2] = dense_srm([detection_op(factors, 1, p) for p in pairs])
        ops[1].update(zip(pairs, lams))
    for m1 in range(cb.m1_size):
        pairs = [(m1, m2) for m2 in range(cb.m2_size)]
        lams, margins[2][m1] = dense_srm([detection_op(factors, 2, p) for p in pairs])
        ops[2].update(zip(pairs, lams))
    return ops, margins


def dense_error_tables(cb, bc, factors, ops):
    first, coll, bounds = {1: {}, 2: {}}, {1: {}, 2: {}}, {1: {}, 2: {}}
    for (m1, m2), w in cb.words.items():
        for r in (1, 2):
            state = bc.marginal(r).word_state(w)
            first[r][(m1, m2)] = max(0.0, 1.0 - trace_pair(ops[r][(m1, m2)], state))
            if r == 1:
                others = [(k, m2) for k in range(cb.m1_size) if k != m1]
            else:
                others = [(m1, k) for k in range(cb.m2_size) if k != m2]
            mass = sum(max(0.0, trace_pair(detection_op(factors, r, p), state)) for p in others)
            miss = max(0.0, 1.0 - trace_pair(detection_op(factors, r, (m1, m2)), state))
            coll[r][(m1, m2)] = mass
            bounds[r][(m1, m2)] = 2.0 * miss + 4.0 * mass
    return first, coll, bounds


def assert_matches_oracle(cb, bc, alpha):
    dec = factor_decoder(cb, bc, alpha=alpha)
    factors = detection_factors(dec)
    ops, margins = dense_decoder(cb, factors)
    report = average_errors(dec)
    for r in (1, 2):
        for known, pairs in _side_info_groups(r, cb.m1_size, cb.m2_size).items():
            # each group built once here, and Λ = H H† formed from its factors
            group = dec.group(r, known)
            for index, pair in enumerate(pairs):
                assert np.abs(dense_op(group.factor(index)) - ops[r][pair]).max() <= TOL
        for key, margin in margins[r].items():
            assert report.margins[r][key] == pytest.approx(margin, abs=TOL)
    first, coll, bounds = dense_error_tables(cb, bc, factors, ops)
    for r in (1, 2):
        for pair in cb.words:
            assert report.first_kind[r][pair] == pytest.approx(first[r][pair], abs=TOL)
            assert report.collisions[r][pair] == pytest.approx(coll[r][pair], abs=TOL)
            assert report.decomposition_bounds[r][pair] == pytest.approx(bounds[r][pair], abs=TOL)
    return factors, dec


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_sampled_codebook_matches_dense_oracle(channel, n):
    cb = sample_codebook(uniform_binary(), n, 3, 2, seed=4)
    assert_matches_oracle(cb, CHANNELS[channel](), alpha=0.3)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_repeated_word_group_matches_dense_oracle(channel, n):
    # receiver 1's group m2 = 0 holds the same word twice: its Gram matrix is
    # rank-deficient
    a, b = tuple("01" * (n // 2)), tuple("0" * (n // 2) + "1" * (n // 2))
    words = {(0, 0): a, (1, 0): a, (0, 1): a, (1, 1): b}
    cb = Codebook(n, 2, 2, words, uniform_binary())
    factors, _ = assert_matches_oracle(cb, CHANNELS[channel](), alpha=0.3)
    stacked = np.hstack([factors[1][(0, 0)], factors[1][(1, 0)]])
    assert 0 < np.linalg.matrix_rank(stacked) < stacked.shape[1]


def rank_zero_codebook(n):
    # at alpha = 0.1 the word with n - 1 ones has an empty conditional
    # projector on receiver 2 of the random channel; receiver 2's group m1 = 0
    # is all rank 0 (K = 0), group m1 = 1 mixes rank 0 with positive rank
    z, a = tuple("1" * (n - 1) + "0"), tuple("0" * n)
    words = {(0, 0): z, (0, 1): z, (1, 0): z, (1, 1): a}
    return Codebook(n, 2, 2, words, uniform_binary())


@pytest.mark.parametrize("n", NS)
def test_rank_zero_word_matches_dense_oracle(n):
    factors, dec = assert_matches_oracle(rank_zero_codebook(n), random_broadcast(), alpha=0.1)
    assert factors[2][(0, 0)].shape[1] == 0
    assert factors[2][(1, 1)].shape[1] > 0
    assert average_errors(dec).margins[2][0] == -1.0


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_modular_sum_errors_match_dense_oracle(channel, n):
    bc = CHANNELS[channel]()
    config = {
        "n": n, "M1": 4, "M2": 4, "alpha": 0.3, "seed": 2,
        "scheme": "modular-sum", "delta": 1.0, "max_seed_attempts": 1,
    }
    report = end_to_end_broadcast_sim(bc, config)
    assert report["status"] == "ok"
    cb = sample_codebook(uniform_binary(), n, 4, 1, 0.5, 2)
    factors = detection_factors(factor_decoder(cb, bc, alpha=0.3))
    for r in (1, 2):
        lams, margin = dense_srm([detection_op(factors, r, (c, 0)) for c in range(4)])
        errors = [
            max(0.0, 1.0 - trace_pair(lam, bc.marginal(r).word_state(cb.word(c, 0))))
            for c, lam in enumerate(lams)
        ]
        assert report["common_errors"][f"receiver{r}"] == pytest.approx(errors, abs=TOL)
        assert report["subpovm_margins"][f"receiver{r}"] == pytest.approx(margin, abs=TOL)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    alpha=st.sampled_from([0.3, 0.6, 1.0]),
)
def test_outcome_tables_match_decoding_and_dense_oracle(seed, n, sizes, alpha):
    # on a random non-commuting qubit channel, every pair's row of its
    # group's outcome table is a sub-probability vector whose diagonal entry
    # gives the first-kind error, and it is what the decoder reads for that
    # word and what the dense square-root measurement gives
    rng = np.random.default_rng(seed)
    bc = product_broadcast_channel(
        *(CQChannel(("0", "1"), {"0": random_density(rng, 2), "1": random_density(rng, 2)}) for _ in range(2))
    )
    cb = sample_codebook(uniform_binary(), n, *sizes, seed=seed % 1000)
    dec = build_square_root_decoder(cb, bc, alpha=alpha)
    report = average_errors(dec)
    ops, _ = dense_decoder(cb, detection_factors(dec))
    for r in (1, 2):
        marg = bc.marginal(r)
        for known, pairs in _side_info_groups(r, *sizes).items():
            for index, pair in enumerate(pairs):
                row = np.array(report.outcomes[r][pair])
                assert row.shape == (len(pairs),)
                assert row.min() >= -TOL
                assert row.sum() <= 1.0 + 1e-9
                assert report.first_kind[r][pair] == max(0.0, 1.0 - row[index])
                word = cb.word(*pair)
                with mock.patch.object(coding, "_decide", wraps=coding._decide) as decide:
                    decode_with_side_info(dec, r, known, _word_factors(marg, word))
                assert np.abs(np.asarray(decide.call_args.args[0]) - row).max() <= TOL
                dense = [trace_pair(ops[r][p], marg.word_state(word)) for p in pairs]
                assert np.abs(row - dense).max() <= TOL


# ---------------------------------------------------------------------------
# The decoding-group contract.
# ---------------------------------------------------------------------------


class DenseGroup:
    """A decoding group from the dense oracle that offers only the group
    contract: outcome and detection tables, margin, length and factor."""

    def __init__(self, detection_factors):
        self._detection = [hermitian_part(f @ f.conj().T) for f in detection_factors]
        self._lams, self.margin = dense_srm(self._detection)
        inv_root = pseudo_sqrt_inverse(sum(self._detection))
        self._normalized = [inv_root @ f for f in detection_factors]

    def __len__(self):
        return len(self._lams)

    def factor(self, i):
        return self._normalized[i]

    def outcomes(self, states):
        return self._table(self._lams, states)

    def tables(self, states):
        return self.outcomes(states), self._table(self._detection, states)

    @staticmethod
    def _table(ops, states):
        rhos = [tensor_all(state) for state in states]
        return np.array([[trace_pair(op, rho) for op in ops] for rho in rhos], dtype=float)


@pytest.mark.parametrize(
    "channel, codebook, alpha",
    [
        ("canonical", lambda n: sample_codebook(uniform_binary(), n, 3, 2, seed=4), 0.3),
        ("random", lambda n: sample_codebook(uniform_binary(), n, 3, 2, seed=4), 0.3),
        ("random", rank_zero_codebook, 0.1),
    ],
    ids=["real", "complex", "rank-zero"],
)
def test_a_dense_group_behind_the_contract_matches_the_factor_path(channel, codebook, alpha):
    # a decoder whose groups are dense oracle groups, read only through the
    # contract, gives every figure the factor path gives
    bc, cb = CHANNELS[channel](), codebook(6)
    dec = factor_decoder(cb, bc, alpha=alpha)
    factors = detection_factors(dec)
    # each side-information group's dense oracle, built once and handed out
    # by the decoder for the group's words
    dense_groups = {
        (r, tuple(cb.words[p] for p in pairs)): DenseGroup([factors[r][p] for p in pairs])
        for r in (1, 2)
        for pairs in _side_info_groups(r, cb.m1_size, cb.m2_size).values()
    }
    dense = SquareRootDecoder(cb, bc, {r: lambda words, r=r: dense_groups[r, tuple(words)] for r in (1, 2)})
    want = average_errors(dec)
    got = average_errors(dense)
    assert_same_report(got.margins, want.margins)
    assert_same_report(got.as_dict(), want.as_dict())
    assert_same_report(got.outcomes, want.outcomes)
    for r in (1, 2):
        for known, pairs in _side_info_groups(r, cb.m1_size, cb.m2_size).items():
            dense_group, group = dense.group(r, known), dec.group(r, known)
            for index, pair in enumerate(pairs):
                dense_h, h = dense_group.factor(index), group.factor(index)
                assert np.abs(dense_h - h).max(initial=0.0) <= TOL
                assert np.abs(dense_op(dense_h) - dense_op(h)).max() <= TOL
                state = _word_factors(bc.marginal(r), cb.word(*pair))
                assert decode_with_side_info(dense, r, known, state) == decode_with_side_info(dec, r, known, state)
    if codebook is rank_zero_codebook:
        assert sum(factors[2][(0, m2)].shape[1] for m2 in range(2)) == 0
        assert got.margins[2][0] == -1.0


# ---------------------------------------------------------------------------
# Real arithmetic for real channels.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("channel, dtype", [("canonical", np.float64), ("random", np.complex128)])
def test_letter_states_set_the_dtype_of_every_decoder_operator(channel, dtype):
    bc = CHANNELS[channel]()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=4)
    dec = factor_decoder(cb, bc, alpha=0.3)
    factors = detection_factors(dec)
    assert {bc.joint_state(a).dtype for a in bc.alphabet} == {np.dtype(dtype)}
    for r in (1, 2):
        marg = bc.marginal(r)
        assert {marg.state(a).dtype for a in marg.alphabet} == {np.dtype(dtype)}
        assert {f.dtype for f in factors[r].values()} == {np.dtype(dtype)}
        group = dec.group(r, 0)
        assert group.inv_root.dtype == dtype
        assert group.factor(0).dtype == dtype
        proj = averaged_state_projector(marg, cb.dist, cb.n, 0.3)
        assert product_columns(proj.factors(), proj.index_words()).dtype == dtype


def hadamard_frame(a, b):
    # diag(a, b) in the Hadamard basis; the letter with the swapped diagonal
    # gets exactly the opposite off-diagonal entry, so a uniform mixture of
    # the two is exactly diagonal
    s, d = (a + b) / 2, (a - b) / 2
    return np.array([[s, d], [d, s]])


def real_frame_broadcast():
    # the canonical channel in the Hadamard basis: real letter states that
    # are not diagonal, whose uniform averages are exactly scalar
    comps = []
    for ch in (orthogonal_pure_channel(2), depolarized_channel(0.1, 2)):
        a, b = np.diag(ch.state("0")).real
        comps.append(CQChannel(("0", "1"), {"0": hadamard_frame(a, b), "1": hadamard_frame(b, a)}))
    return product_broadcast_channel(*comps)


def phase_twin(bc, phi=0.7):
    # D rho D† for D = diag(1, e^{i phi}) on each qubit of the joint state,
    # applied entrywise so that the diagonal is kept exactly
    d1, d2 = bc.dims
    phases = np.kron(*(np.exp(1j * phi * np.arange(d)) for d in (d1, d2)))
    twist = np.outer(phases, phases.conj())
    np.fill_diagonal(twist, 1.0)
    return BroadcastCQChannel(bc.alphabet, bc.dims, {a: bc.joint_state(a) * twist for a in bc.alphabet})


def assert_same_report(got, want, path=""):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= TOL, (path, got, want)
    else:
        assert got == want, path


def pipeline_figures(cb, bc):
    dec = factor_decoder(cb, bc, alpha=0.3)
    errors = average_errors(dec)
    decoded = {
        (r, pair): decode_with_side_info(
            dec, r, pair[1] if r == 1 else pair[0], _word_factors(bc.marginal(r), cb.word(*pair))
        )
        for r in (1, 2)
        for pair in cb.words
    }
    return {
        "errors": errors.as_dict(),
        "outcomes": errors.outcomes,
        "margins": errors.margins,
        "chi": [holevo_chi(bc.marginal(r), cb.dist) for r in (1, 2)],
        "decoded": decoded,
    }


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.6, 0.4)])
def test_phase_twin_matches_the_real_run(weights, n):
    # the twin is unitarily equivalent on each receiver, and D keeps every
    # eigenbasis a phase twist of the real one, so the complex128 run must
    # reproduce the float64 run's error tables, collisions, margins, chi and
    # decode table.  Uniform inputs make both averaged states exactly scalar;
    # the skewed ones give them eigenbases that are complex in the twin.
    real = real_frame_broadcast()
    twin = phase_twin(real)
    for r in (1, 2):
        assert {real.marginal(r).state(a).dtype for a in real.alphabet} == {np.dtype(np.float64)}
        assert {twin.marginal(r).state(a).dtype for a in twin.alphabet} == {np.dtype(np.complex128)}
        assert max(np.abs(twin.marginal(r).state(a).imag).max() for a in twin.alphabet) > 0.1
    cb = sample_codebook(ProbabilityDistribution(("0", "1"), weights), n, 2, 3, seed=4)
    want = pipeline_figures(cb, real)
    assert max(want["errors"]["first_kind_2"].values()) > 0.01
    assert_same_report(pipeline_figures(cb, twin), want)
    config = {"n": n, "M1": 2, "M2": 3, "alpha": 0.3, "seed": 11, "max_seed_attempts": 1, "dist": list(weights)}
    assert_same_report(end_to_end_broadcast_sim(twin, config), end_to_end_broadcast_sim(real, config))


# ---------------------------------------------------------------------------
# The exact commuting reduction: diagonal groups against the factor path.
# ---------------------------------------------------------------------------


def side_info_groups(dec, r):
    """known index -> the receiver's decoding group, each built on request."""
    return {known: dec.group(r, known) for known in _side_info_groups(r, dec.m1_size, dec.m2_size)}


def assert_diagonal_matches_factor_path(cb, bc, alpha):
    want = factor_decoder(cb, bc, alpha=alpha)
    got = build_square_root_decoder(cb, bc, alpha=alpha)
    assert all(isinstance(g, coding._DiagonalGroup) for r in (1, 2) for g in side_info_groups(got, r).values())
    report, oracle = average_errors(got), average_errors(want)
    assert_same_report(report.margins, oracle.margins)
    assert_same_report(report.as_dict(), oracle.as_dict())
    assert_same_report(report.outcomes, oracle.outcomes)
    for r in (1, 2):
        states = [_word_factors(bc.marginal(r), w) for w in dict.fromkeys(cb.words[p] for p in sorted(cb.words))]
        for known, pairs in _side_info_groups(r, cb.m1_size, cb.m2_size).items():
            # each group built once here, and Λ = H H† formed from its factors
            group, oracle_group = got.group(r, known), want.group(r, known)
            assert np.abs(group.tables(states)[1] - oracle_group.tables(states)[1]).max() <= TOL
            for index, pair in enumerate(pairs):
                # factor() spans the support of Lambda, so factors compare as H H†
                lam, oracle_lam = (dense_op(g.factor(index)) for g in (group, oracle_group))
                assert np.abs(lam - oracle_lam).max() <= TOL
                # a dense word state gives the outcome row of its tensor factors
                dense = bc.marginal(r).word_state(cb.word(*pair))
                with mock.patch.object(coding, "_decide", wraps=coding._decide) as decide:
                    decode_with_side_info(got, r, known, dense)
                assert np.abs(np.asarray(decide.call_args.args[0]) - report.outcomes[r][pair]).max() <= TOL
    return got, report


@pytest.mark.parametrize(
    "scheme, n, weights",
    [
        ("proof-construction", 4, (0.5, 0.5)),
        ("proof-construction", 9, (0.6, 0.4)),
        ("proof-construction", 12, (0.5, 0.5)),
        ("modular-sum", 5, (0.6, 0.4)),
        ("modular-sum", 10, (0.5, 0.5)),
    ],
)
def test_diagonal_simulate_matches_the_factor_path(scheme, n, weights):
    # the canonical channel's letters are diagonal in its averaged
    # projectors' basis; delta = 1 keeps every run off the acceptance edge
    config = {
        "n": n, "M1": 3, "M2": 3 if scheme == "modular-sum" else 2, "alpha": 0.3, "seed": 11,
        "scheme": scheme, "delta": 1.0, "max_seed_attempts": 1, "dist": list(weights),
    }
    bc = canonical_broadcast()
    with factor_path():
        want = end_to_end_broadcast_sim(bc, config)
    with mock.patch.object(coding, "_normalize_group", side_effect=AssertionError("factor path taken")):
        got = end_to_end_broadcast_sim(bc, config)
    assert got["status"] == "ok"
    assert_same_report(got, want)


def test_an_average_error_equal_to_delta_passes_on_both_paths():
    # at seed 11 receiver 1's overall error is 0.25 = delta in exact
    # arithmetic; one path may read it a rounding above delta, so both seed
    # acceptance and expurgation compare with the report tolerance
    config = {"n": 5, "M1": 2, "M2": 2, "alpha": 0.3, "seed": 11, "dist": [0.6, 0.4]}
    bc = canonical_broadcast()
    with factor_path():
        want = end_to_end_broadcast_sim(bc, config)
    got = end_to_end_broadcast_sim(bc, config)
    for report in (got, want):
        assert report["status"] == "ok" and report["seed_used"] == 11
        assert abs(report["errors"]["overall_1"] - 0.25) <= REPORT_RTOL
    assert_same_report(got, want)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.6, 0.4)])
def test_diagonal_groups_match_on_the_canonical_channel(weights):
    cb = sample_codebook(ProbabilityDistribution(("0", "1"), weights), 6, 3, 2, seed=4)
    _, report = assert_diagonal_matches_factor_path(cb, canonical_broadcast(), alpha=0.3)
    assert max(report.first_kind[2].values()) > 0.01


def letter_eigenpairs(channel):
    """letter -> its eigenpairs, as the public builder decomposes them."""
    states = {a: channel.state(a) for a in channel.alphabet}
    pairs = {a: np.linalg.eigh((m + m.conj().T) / 2) for a, m in states.items()}
    return {a: (w[::-1].copy(), u[:, ::-1].copy()) for a, (w, u) in pairs.items()}


def commuting_qutrit_broadcast(seed, kind):
    # each receiver's three letter states share one eigenbasis V, real
    # orthogonal ("signed") or complex unitary ("phased"), and each letter
    # orders its spectrum on V differently, so eigh returns each letter's
    # basis as V permuted, and signed or phased
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(2):
        z = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if kind == "phased" else 0.0)
        v = np.linalg.qr(z)[0]
        states = {a: hermitian_part(v @ np.diag(rng.dirichlet(np.ones(3))) @ v.conj().T) for a in "012"}
        comps.append(CQChannel(("0", "1", "2"), states))
    return product_broadcast_channel(*comps)


@pytest.mark.parametrize("kind", ["signed", "phased"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_diagonal_groups_match_on_random_commuting_qutrit_channels(kind, seed):
    bc = commuting_qutrit_broadcast(seed, kind)
    dist = ProbabilityDistribution.uniform(("0", "1", "2"))
    cb = sample_codebook(dist, 5, 3, 2, seed=seed)
    got, report = assert_diagonal_matches_factor_path(cb, bc, alpha=0.5)
    projectors = coding._averaged_projectors(bc, dist, 5, 0.5, "fixed")
    orders = [coding._diagonal_orders(letter_eigenpairs(bc.marginal(r)), projectors[r]) for r in (1, 2)]
    assert any(not np.array_equal(o, np.arange(3)) for by_letter in orders for o in by_letter.values())
    assert max(max(row) for r in (1, 2) for row in report.outcomes[r].values()) > 0.1


def test_diagonal_groups_match_with_degenerate_spectra():
    # qutrit letters with a doubly degenerate spectrum, and a uniform
    # average that is I/3 on receiver 1 and degenerate on receiver 2
    comps = [
        CQChannel(("0", "1", "2"), {a: np.roll(np.diag([0.5, 0.25, 0.25]), k, axis=(0, 1)) for k, a in enumerate("012")}),
        CQChannel(("0", "1", "2"), {a: np.diag(d) for a, d in zip("012", ([1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0]))}),
    ]
    bc = product_broadcast_channel(*comps)
    cb = sample_codebook(ProbabilityDistribution.uniform(("0", "1", "2")), 5, 2, 3, seed=5)
    assert_diagonal_matches_factor_path(cb, bc, alpha=0.5)


def test_diagonal_rank_zero_group_matches_the_factor_path():
    # receiver 2's letters have spectrum (0.7, 0.3): at alpha = 0.1 the word
    # with one 0 has an empty conditional projector, so group m1 = 0 is all
    # rank 0 and group m1 = 1 mixes rank 0 with positive rank
    bc = product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.6, 2))
    cb = rank_zero_codebook(6)
    factors = detection_factors(factor_decoder(cb, bc, alpha=0.1))
    assert factors[2][(0, 0)].shape[1] == 0 and factors[2][(1, 1)].shape[1] > 0
    got, report = assert_diagonal_matches_factor_path(cb, bc, alpha=0.1)
    assert report.margins[2][0] == -1.0
    assert got.group(2, 0).factor(0).shape == (2**6, 0)


@pytest.mark.parametrize(
    "channel, n, alpha",
    [(canonical_broadcast, 8, 0.3), (lambda: commuting_qutrit_broadcast(2, "phased"), 5, 0.5)],
    ids=["real-qubit", "phased-qutrit"],
)
def test_a_dense_state_on_the_diagonal_path_forms_no_basis_power(monkeypatch, channel, n, alpha):
    # a dense word state, or a factor on several positions, is rotated into
    # the projector's basis by mode products; no power basis^(x)m is formed,
    # and the outcome row is the one its single-letter factors give, on both
    # paths
    bc = channel()
    cb = sample_codebook(ProbabilityDistribution.uniform(bc.alphabet), n, 2, 2, seed=3)
    dec, oracle = build_square_root_decoder(cb, bc, alpha=alpha), factor_decoder(cb, bc, alpha=alpha)
    powers = []
    monkeypatch.setattr(coding, "tensor_all", lambda mats: powers.append(len(mats)) or tensor_all(mats), raising=False)
    largest = 0.0
    for r in (1, 2):
        for known, pairs in _side_info_groups(r, cb.m1_size, cb.m2_size).items():
            group, oracle_group = dec.group(r, known), oracle.group(r, known)
            assert isinstance(group, coding._DiagonalGroup)
            for pair in pairs:
                factors = _word_factors(bc.marginal(r), cb.word(*pair))
                want = oracle_group.outcomes([factors])[0]
                split = [tensor_all(factors[:2]), tensor_all(factors[2:])]
                rows = group.outcomes([factors, [tensor_all(factors)], split])
                assert np.abs(rows - want).max() <= TOL
                largest = max(largest, want.max())
    assert not [m for m in powers if m > 1]
    assert largest > 0.5


def spy_paths():
    # records the receivers' group constructions by path
    diagonal = mock.patch.object(coding, "_diagonal_group", wraps=coding._diagonal_group)
    factor = mock.patch.object(coding, "_normalize_group", wraps=coding._normalize_group)
    return diagonal, factor


def mixed_broadcast():
    # receiver 1's letters commute, receiver 2's do not
    return product_broadcast_channel(orthogonal_pure_channel(2), random_broadcast().marginal(2))


def overlap_bench_broadcast():
    return load_channel(str(pathlib.Path(__file__).resolve().parents[1] / "bench" / "overlap-broadcast.json"))


@pytest.mark.parametrize(
    "channel, paths",
    [
        (canonical_broadcast, (coding._DiagonalGroup, coding._DiagonalGroup)),
        (overlap_bench_broadcast, (coding._NormalizedGroup, coding._NormalizedGroup)),
        (mixed_broadcast, (coding._DiagonalGroup, coding._NormalizedGroup)),
    ],
    ids=["product-broadcast", "overlap-broadcast", "mixed"],
)
def test_the_public_builder_picks_each_receivers_path(channel, paths):
    # the canonical product-broadcast channel's letters are diagonal in both
    # averaged projectors' bases; the overlap benchmark channel's are in
    # neither; the mixed channel's only on receiver 1
    bc = channel()
    cb = sample_codebook(ProbabilityDistribution.uniform(bc.alphabet), 6, 3, 2, seed=2)
    dec = build_square_root_decoder(cb, bc, alpha=0.3)
    for r, path in zip((1, 2), paths):
        assert {type(g) for g in side_info_groups(dec, r).values()} == {path}


def test_each_receiver_takes_its_own_path():
    # receiver 1's letters commute, receiver 2's do not: receiver 1's two
    # groups (one per m2) are diagonal and receiver 2's three are factor groups
    mixed = mixed_broadcast()
    config = {"n": 6, "M1": 3, "M2": 2, "alpha": 0.3, "seed": 2, "delta": 1.0, "max_seed_attempts": 1}
    diagonal, factor = spy_paths()
    with diagonal as diag, factor as norm:
        report = end_to_end_broadcast_sim(mixed, config)
    assert report["status"] == "ok"
    assert [len(c.args[1]) for c in diag.call_args_list] == [3, 3]
    assert [len(c.args[0]) for c in norm.call_args_list] == [2, 2, 2]
    with factor_path():
        assert_same_report(report, end_to_end_broadcast_sim(mixed, config))


def test_non_commuting_letters_never_take_the_diagonal_path():
    config = {"n": 6, "M1": 3, "M2": 2, "alpha": 0.3, "seed": 2, "delta": 1.0, "max_seed_attempts": 1}
    diagonal, factor = spy_paths()
    with diagonal as diag, factor as norm:
        end_to_end_broadcast_sim(random_broadcast(), config)
    assert diag.call_count == 0 and norm.call_count == 5


@pytest.mark.parametrize("weights, diagonal", [((0.5, 0.5), False), ((0.6, 0.4), True)])
def test_commuting_letters_need_the_projectors_basis(weights, diagonal):
    # the Hadamard-frame letters commute on both receivers, but with uniform
    # inputs each average is scalar and eigh returns the computational basis,
    # which is not theirs: the factor path runs
    bc = real_frame_broadcast()
    dist = ProbabilityDistribution(("0", "1"), weights)
    projectors = coding._averaged_projectors(bc, dist, 4, 0.3, "fixed")
    for r in (1, 2):
        a, b = (bc.marginal(r).state(x) for x in ("0", "1"))
        assert np.abs(a @ b - b @ a).max() <= 1e-15
        assert (coding._diagonal_orders(letter_eigenpairs(bc.marginal(r)), projectors[r]) is not None) == diagonal
