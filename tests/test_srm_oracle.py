"""Dense oracle for the square-root measurement.

The decoder normalizes each side-information group on the K x K Gram matrix
of its stacked detection factors.  The oracle is the direct N x N
construction: S = sum_i D_i, S^{-1/2} from pseudo_sqrt_inverse,
Lambda_i = S^{-1/2} D_i S^{-1/2}, and the sub-POVM margin from an N x N
eigvalsh of sum_i Lambda_i - I.  Every figure the pipeline reports must agree
with it within 1e-12.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqrelay.channels import (
    CQChannel,
    depolarized_channel,
    orthogonal_pure_channel,
    product_broadcast_channel,
)
from cqrelay import coding
from cqrelay.coding import (
    Codebook,
    _side_info_groups,
    _word_factors,
    average_errors,
    build_detection_operators,
    build_square_root_decoder,
    decode_with_side_info,
    end_to_end_broadcast_sim,
    sample_codebook,
)
from cqrelay.lemmas import random_density
from cqrelay.operators import (
    ProbabilityDistribution,
    hermitian_part,
    pseudo_sqrt_inverse,
    trace_pair,
)

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


def dense_decoder(det):
    cb = det.codebook
    ops, margins = {1: {}, 2: {}}, {1: {}, 2: {}}
    for m2 in range(cb.m2_size):
        pairs = [(m1, m2) for m1 in range(cb.m1_size)]
        lams, margins[1][m2] = dense_srm([det.op(1, *p) for p in pairs])
        ops[1].update(zip(pairs, lams))
    for m1 in range(cb.m1_size):
        pairs = [(m1, m2) for m2 in range(cb.m2_size)]
        lams, margins[2][m1] = dense_srm([det.op(2, *p) for p in pairs])
        ops[2].update(zip(pairs, lams))
    return ops, margins


def dense_error_tables(cb, bc, det, ops):
    first, coll, bounds = {1: {}, 2: {}}, {1: {}, 2: {}}, {1: {}, 2: {}}
    for (m1, m2), w in cb.words.items():
        for r in (1, 2):
            state = bc.marginal(r).word_state(w)
            first[r][(m1, m2)] = max(0.0, 1.0 - trace_pair(ops[r][(m1, m2)], state))
            if r == 1:
                others = [(k, m2) for k in range(cb.m1_size) if k != m1]
            else:
                others = [(m1, k) for k in range(cb.m2_size) if k != m2]
            mass = sum(max(0.0, trace_pair(det.op(r, *p), state)) for p in others)
            miss = max(0.0, 1.0 - trace_pair(det.op(r, m1, m2), state))
            coll[r][(m1, m2)] = mass
            bounds[r][(m1, m2)] = 2.0 * miss + 4.0 * mass
    return first, coll, bounds


def assert_matches_oracle(cb, bc, alpha):
    det = build_detection_operators(cb, bc, alpha=alpha)
    dec = build_square_root_decoder(det)
    ops, margins = dense_decoder(det)
    for r in (1, 2):
        for pair in cb.words:
            assert np.abs(dec.op(r, *pair) - ops[r][pair]).max() <= TOL
        for key, margin in margins[r].items():
            assert dec.subpovm_margins[r][key] == pytest.approx(margin, abs=TOL)
    report = average_errors(cb, bc, dec)
    first, coll, bounds = dense_error_tables(cb, bc, det, ops)
    for r in (1, 2):
        for pair in cb.words:
            assert report.first_kind[r][pair] == pytest.approx(first[r][pair], abs=TOL)
            assert report.collisions[r][pair] == pytest.approx(coll[r][pair], abs=TOL)
            assert report.decomposition_bounds[r][pair] == pytest.approx(bounds[r][pair], abs=TOL)
    return det, dec


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
    cb = Codebook(n, 2, 2, words, uniform_binary(), 0.5, 0)
    det, _ = assert_matches_oracle(cb, CHANNELS[channel](), alpha=0.3)
    stacked = np.hstack([det.factors[1][(0, 0)], det.factors[1][(1, 0)]])
    assert 0 < np.linalg.matrix_rank(stacked) < stacked.shape[1]


@pytest.mark.parametrize("n", NS)
def test_rank_zero_word_matches_dense_oracle(n):
    # at alpha = 0.1 the word with n - 1 ones has an empty conditional
    # projector on receiver 2 of the random channel; receiver 2's group m1 = 0
    # is all rank 0 (K = 0), group m1 = 1 mixes rank 0 with positive rank
    z, a = tuple("1" * (n - 1) + "0"), tuple("0" * n)
    words = {(0, 0): z, (0, 1): z, (1, 0): z, (1, 1): a}
    cb = Codebook(n, 2, 2, words, uniform_binary(), 0.5, 0)
    det, dec = assert_matches_oracle(cb, random_broadcast(), alpha=0.1)
    assert det.cond_ranks[2][(0, 0)] == 0
    assert det.cond_ranks[2][(1, 1)] > 0
    assert dec.subpovm_margins[2][0] == -1.0


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
    det = build_detection_operators(cb, bc, alpha=0.3)
    for r in (1, 2):
        lams, margin = dense_srm([det.op(r, c, 0) for c in range(4)])
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
    det = build_detection_operators(cb, bc, alpha=alpha)
    dec = build_square_root_decoder(det)
    report = average_errors(cb, bc, dec)
    ops, _ = dense_decoder(det)
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
