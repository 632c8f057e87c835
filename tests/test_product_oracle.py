"""Dense oracle for the product-structured coding path.

The pipeline never forms the averaged-state projector Pi, a word state
W(x_1) (x) ... (x) W(x_n) or any other N x N product operator: detection
factors come from TypicalProjector.sandwiched_factor and traces
from kron_apply on the single-letter factors.  The oracle is the dense
construction those replace: Pi = proj.matrix(), F = Pi @ V and
tr(F† word_state F).  Every figure must agree within 1e-12.
"""

import itertools

import numpy as np
import pytest

from cqrelay import coding
from cqrelay.channels import (
    CQChannel,
    depolarized_channel,
    orthogonal_pure_channel,
    output_state,
    product_broadcast_channel,
)
from cqrelay.coding import (
    Codebook,
    _factor_trace,
    _word_factors,
    average_errors,
    build_detection_operators,
    build_square_root_decoder,
    decode_with_side_info,
    end_to_end_broadcast_sim,
    sample_codebook,
    second_kind_collision_check,
)
from cqrelay.lemmas import random_density
from cqrelay.operators import (
    KRON_CHUNK_COLUMNS,
    ProbabilityDistribution,
    _fused_factors,
    kron_apply,
    product_columns,
    tensor_all,
    trace_pair,
)
from cqrelay.typicality import (
    TypicalProjector,
    TypicalSet,
    conditional_typical_projector,
    typical_projector,
)

TOL = 1e-12
NS = (4, 6, 8)
ALPHA = 0.3


def uniform_binary():
    return ProbabilityDistribution.uniform(("0", "1"))


def random_channel(rng, dim):
    return CQChannel(("0", "1"), {"0": random_density(rng, dim), "1": random_density(rng, dim)})


def canonical_broadcast():
    return product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2))


def random_broadcast():
    # two random qubit channels whose output states do not commute
    rng = np.random.default_rng(5)
    return product_broadcast_channel(random_channel(rng, 2), random_channel(rng, 2))


def qutrit_broadcast():
    # d = 3 outputs: a wrong axis order or reshape in the mode products shows
    # up here even where it cancels for d = 2
    rng = np.random.default_rng(8)
    return product_broadcast_channel(random_channel(rng, 3), random_channel(rng, 3))


# Dense qutrit operators at n = 8 are 6561 x 6561 (690 MB each), so the
# qutrit channel runs at n <= 6.
CASES = [(name, n) for name in ("canonical", "random") for n in NS]
CASES += [("qutrit", n) for n in (4, 5, 6)]
CHANNELS = {"canonical": canonical_broadcast, "random": random_broadcast, "qutrit": qutrit_broadcast}


def kron_loop(factors, index_words):
    """The per-column np.kron construction that product_columns replaces."""
    cols = np.empty((int(np.prod([f.shape[0] for f in factors])), len(index_words)), dtype=complex)
    for k, word in enumerate(index_words):
        vec = np.array([1.0], dtype=complex)
        for f, j in zip(factors, word):
            vec = np.kron(vec, f[:, j])
        cols[:, k] = vec
    return cols


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 4), (4, 3)])
def test_product_columns_equal_kron_loop_bit_for_bit(d, n):
    rng = np.random.default_rng(d * 10 + n)
    factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)]
    words = rng.integers(0, d, size=(7, n))
    assert (product_columns(factors, words) == kron_loop(factors, words)).all()
    assert product_columns(factors, np.zeros((0, n), dtype=int)).shape == (d**n, 0)


@pytest.mark.parametrize("dims", [(2,), (2, 2, 2), (3, 2, 4), (3, 3, 3, 3)])
def test_kron_apply_matches_dense_kronecker_product(dims):
    rng = np.random.default_rng(len(dims))
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
    block = rng.normal(size=(int(np.prod(dims)), 5)) + 1j * rng.normal(size=(int(np.prod(dims)), 5))
    assert np.abs(kron_apply(mats, block) - tensor_all(mats) @ block).max() <= 1e-12
    assert kron_apply(mats, block[:, :0]).shape == (block.shape[0], 0)


def test_kron_apply_rectangular_factors():
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(2, 3)), rng.normal(size=(4, 2))]
    block = rng.normal(size=(6, 3))
    assert np.abs(kron_apply(mats, block) - np.kron(*mats) @ block).max() <= 1e-12


def dense_detection_factor(det, bc, receiver, word):
    cond = conditional_typical_projector(bc.marginal(receiver), word, det.alpha, det.preset, 10**6)
    return det.projectors[receiver].matrix() @ cond.included_vectors()


def assert_product_path_matches_dense(cb, bc, alpha=ALPHA):
    det = build_detection_operators(cb, bc, alpha=alpha, dim_cap=10**6)
    dec = build_square_root_decoder(det)
    report = average_errors(cb, bc, dec)
    for r in (1, 2):
        marg = bc.marginal(r)
        for pair, w in cb.words.items():
            dense_f = dense_detection_factor(det, bc, r, w)
            assert det.factors[r][pair].shape == dense_f.shape
            assert np.abs(det.factors[r][pair] - dense_f).max(initial=0.0) <= TOL
            state = marg.word_state(w)
            for f in (det.factors[r][pair], dec.factor(r, *pair)):
                dense = trace_pair(f @ f.conj().T, state)
                assert _factor_trace(f, _word_factors(marg, w)) == pytest.approx(dense, abs=TOL)
                assert _factor_trace(f, [state]) == pytest.approx(dense, abs=TOL)
            miss = max(0.0, 1.0 - trace_pair(dec.op(r, *pair), state))
            assert report.first_kind[r][pair] == pytest.approx(miss, abs=TOL)
    return det, dec


@pytest.mark.parametrize("channel,n", CASES)
def test_sampled_codebook_matches_dense_oracle(channel, n):
    cb = sample_codebook(uniform_binary(), n, 2, 2, seed=4)
    assert_product_path_matches_dense(cb, CHANNELS[channel]())


@pytest.mark.parametrize("n", NS)
def test_rank_zero_conditional_projector_matches_dense_oracle(n):
    # at alpha = 0.1 the word with n - 1 ones has an empty conditional
    # projector on receiver 2 of the random channel
    z, a = tuple("1" * (n - 1) + "0"), tuple("0" * n)
    cb = Codebook(n, 2, 2, {(0, 0): z, (0, 1): z, (1, 0): z, (1, 1): a}, uniform_binary(), 0.5, 0)
    bc = random_broadcast()
    det, _ = assert_product_path_matches_dense(cb, bc, alpha=0.1)
    assert det.factors[2][(0, 0)].shape == (2**n, 0)
    assert _factor_trace(det.factors[2][(0, 0)], _word_factors(bc.marginal(2), z)) == 0.0


@pytest.mark.parametrize("channel,n", CASES)
def test_decoding_dense_and_factored_states_agree(channel, n):
    bc = CHANNELS[channel]()
    cb = sample_codebook(uniform_binary(), n, 2, 2, seed=6)
    dec = build_square_root_decoder(build_detection_operators(cb, bc, alpha=ALPHA, dim_cap=10**6))
    for (m1, m2), w in cb.words.items():
        for r, known in ((1, m2), (2, m1)):
            marg = bc.marginal(r)
            factored, dense = _word_factors(marg, w), marg.word_state(w)
            argmax = [decode_with_side_info(dec, r, known, state) for state in (factored, dense)]
            assert argmax[0] == argmax[1]
            draws = [
                decode_with_side_info(dec, r, known, state, "sampled", np.random.default_rng(1))
                for state in (factored, dense)
            ]
            assert draws[0] == draws[1]


def typical_words(tset):
    """Every member word of the set, in product order."""
    return [w for w in itertools.product(tset.dist.labels, repeat=tset.n) if w in tset]


def dense_second_kind(dist, bc, n, alpha, exact, trials=0, seed=0):
    """(estimate, mean conditional rank) from dense Pi, word states and rho_mix."""
    channel = bc.marginal(2)
    pi = typical_projector(output_state(channel, dist), n, alpha * np.sqrt(len(dist))).matrix()
    tset = TypicalSet(dist, n, 0.5)
    mass = tset.probability()

    def factor(w):
        cond = conditional_typical_projector(channel, w, alpha)
        return pi @ cond.included_vectors(), cond.rank

    if exact:
        words = typical_words(tset)
        weights = [np.prod([dist.weight(a) for a in w]) / mass for w in words]
        rho_mix = sum(p * channel.word_state(w) for p, w in zip(weights, words))
        total = rank = 0.0
        for p, w in zip(weights, words):
            f, r = factor(w)
            total += p * trace_pair(f @ f.conj().T, rho_mix)
            rank += p * r
        return max(0.0, total), rank
    rng = np.random.default_rng(seed)
    total = rank = 0.0
    for _ in range(trials):
        x = tset.sample(rng, 100_000)
        f, r = factor(tset.sample(rng, 100_000))
        total += max(0.0, trace_pair(f @ f.conj().T, channel.word_state(x)))
        rank += r
    return total / trials, rank / trials


def ternary_input_broadcast():
    # three letters with unequal weights: the typical count windows are not
    # complementary, so every window edge of the mixture recursion matters
    # (at n = 5 the windows admit types (2, 2, 1) and (3, 1, 1) but not (2, 1, 2))
    rng = np.random.default_rng(13)
    labels = ("a", "b", "c")
    c1, c2 = (CQChannel(labels, {a: random_density(rng, 2) for a in labels}) for _ in range(2))
    return product_broadcast_channel(c1, c2)


SECOND_KIND_CASES = [(name, n) for name in ("canonical", "random") for n in NS]
SECOND_KIND_CASES += [("ternary-input", n) for n in (4, 5, 6)]


@pytest.mark.parametrize("channel,n", SECOND_KIND_CASES)
def test_second_kind_collision_matches_dense_oracle(channel, n):
    if channel == "ternary-input":
        bc, alpha = ternary_input_broadcast(), 1.0
        dist = ProbabilityDistribution(bc.alphabet, np.array([0.5, 0.3, 0.2]))
    else:
        bc, dist, alpha = CHANNELS[channel](), uniform_binary(), ALPHA
    exact = second_kind_collision_check(dist, bc, n, alpha, exact=True)
    estimate, rank = dense_second_kind(dist, bc, n, alpha, True)
    assert estimate > 0.0
    assert exact["estimate"] == pytest.approx(estimate, abs=TOL)
    assert exact["mean_conditional_rank"] == pytest.approx(rank, abs=1e-9)
    assert exact["trials"] == len(typical_words(TypicalSet(dist, n, 0.5))) ** 2
    sampled = second_kind_collision_check(dist, bc, n, alpha, trials=6, seed=2)
    estimate, rank = dense_second_kind(dist, bc, n, alpha, False, 6, 2)
    assert sampled["estimate"] == pytest.approx(estimate, abs=TOL)
    assert sampled["mean_conditional_rank"] == rank


@pytest.mark.parametrize("rank_share", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_dense_projector_branches_match_included_vectors(rank_share):
    # the low-rank, middle and low-corank branches of matrix() against V V†,
    # on an included set with no permutation symmetry
    rng = np.random.default_rng(int(rank_share * 10))
    d, n = 3, 4
    bases = {a: np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] for a in "01"}
    picked = rng.permutation(d**n)[: round(rank_share * d**n)]
    mask = np.zeros(d**n, dtype=bool)
    mask[picked] = True
    cond = TypicalProjector(
        word=("0", "1", "1", "0"), eigenvalues={}, bases=bases, taus={}, alpha=1.0, preset="fixed", mask=mask,
    )
    cols = cond.included_vectors()
    assert np.abs(cond.matrix() - cols @ cols.conj().T).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 6])
def test_sandwiched_factor_under_a_non_constant_outer_projector(n):
    # the outer projector rotates each position into its own letter's
    # eigenbasis; random qubit states keep every letter pair non-commuting
    rng = np.random.default_rng(40 + n)
    outer = conditional_typical_projector(random_channel(rng, 2), ("0", "1") * (n // 2), 0.5)
    own = conditional_typical_projector(random_channel(rng, 2), ("0", "0", "1", "1", "1", "0")[:n], 0.5)
    assert 0 < outer.rank < 2**n and 0 < own.rank < 2**n
    dense = outer.matrix() @ own.included_vectors()
    assert np.abs(own.sandwiched_factor(outer) - dense).max() <= TOL


def _refuse(*args, **kwargs):
    raise AssertionError("a dense N x N product operator was formed")


@pytest.mark.parametrize("scheme", ["proof-construction", "modular-sum"])
def test_simulate_never_forms_dense_product_operators(monkeypatch, scheme):
    monkeypatch.setattr(CQChannel, "word_state", _refuse)
    monkeypatch.setattr(TypicalProjector, "matrix", _refuse)
    monkeypatch.setattr("cqrelay.typicality.tensor_all", _refuse)
    config = {"n": 8, "M1": 2, "M2": 2, "alpha": ALPHA, "seed": 11, "scheme": scheme, "delta": 1.0}
    report = end_to_end_broadcast_sim(canonical_broadcast(), config)
    assert report["status"] == "ok"


# ---------------------------------------------------------------------------
# fused and streamed mode products, and the lazily formed normalized factors
# ---------------------------------------------------------------------------


def contraction(rng, p, q):
    """A random complex p x q matrix of operator norm 1, so that products of
    many factors keep entries of order 1 and an absolute tolerance means
    something."""
    m = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
    return m / np.linalg.norm(m, 2)


def unit_columns(rng, rows, cols):
    block = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return block / np.linalg.norm(block, axis=0)


@pytest.mark.parametrize(
    "shapes, fused",
    [
        ([(2, 2)] * 11, [(32, 32), (32, 32), (2, 2)]),
        ([(3, 3)] * 5, [(27, 27), (9, 9)]),
        ([(5, 5)] * 3, [(25, 25), (5, 5)]),
        ([(2, 3), (4, 2), (3, 3)], [(24, 18)]),
    ],
)
def test_kron_apply_at_fusion_boundaries(shapes, fused):
    rng = np.random.default_rng(len(shapes))
    mats = [contraction(rng, p, q) for p, q in shapes]
    assert [f.shape for f in _fused_factors(mats)] == fused
    dense = tensor_all(mats)
    block = unit_columns(rng, dense.shape[1], 2 * KRON_CHUNK_COLUMNS + 6)
    assert np.abs(kron_apply(mats, block) - dense @ block).max() <= TOL
    assert kron_apply(mats, block[:, :0]).shape == (dense.shape[0], 0)


STREAM_WIDTHS = [5, KRON_CHUNK_COLUMNS, 2 * KRON_CHUNK_COLUMNS + 6]


@pytest.mark.parametrize("width", STREAM_WIDTHS)
def test_streamed_factor_trace_matches_dense(width):
    # fewer columns than one chunk, exactly one chunk, and a ragged last chunk
    rng = np.random.default_rng(width)
    state = [random_density(rng, 2) for _ in range(7)]
    factor = unit_columns(rng, 2**7, width) / np.sqrt(width)
    dense = trace_pair(factor @ factor.conj().T, tensor_all(state))
    assert _factor_trace(factor, state) == pytest.approx(dense, abs=TOL)


def random_projector(rng, word, rank):
    bases = {a: np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for a in set(word)}
    mask = np.zeros(2 ** len(word), dtype=bool)
    mask[rng.permutation(mask.size)[:rank]] = True
    return TypicalProjector(
        word=tuple(word), eigenvalues={}, bases=bases, taus={}, alpha=1.0, preset="fixed", mask=mask,
    )


@pytest.mark.parametrize("width", STREAM_WIDTHS)
def test_streamed_sandwiched_factor_matches_dense(width):
    rng = np.random.default_rng(100 + width)
    outer = random_projector(rng, "0110100", 90)
    own = random_projector(rng, "0011101", width)
    dense = outer.matrix() @ own.included_vectors()
    assert np.abs(own.sandwiched_factor(outer) - dense).max() <= TOL


@pytest.mark.parametrize("panel_rows", [coding.PANEL_ROWS, 24])
@pytest.mark.parametrize("channel,n", [(name, n) for name in ("canonical", "random") for n in NS])
def test_lazily_formed_normalized_factors_match_dense_oracle(monkeypatch, channel, n, panel_rows):
    from test_srm_oracle import dense_srm

    # 24-row panels split every N here into several, the last one ragged
    monkeypatch.setattr(coding, "PANEL_ROWS", panel_rows)
    cb = sample_codebook(uniform_binary(), n, 3, 2, seed=4)
    det = build_detection_operators(cb, CHANNELS[channel](), alpha=ALPHA)
    dec = build_square_root_decoder(det)
    for r in (1, 2):
        for known, group in dec.groups[r].items():
            pairs = [(m1, known) for m1 in range(3)] if r == 1 else [(known, m2) for m2 in range(2)]
            # the group keeps the detection factors themselves and G^{+1/2},
            # not a copy of the factors or any normalized factor
            assert all(f is det.factors[r][p] for f, p in zip(group.factors, pairs))
            k = sum(f.shape[1] for f in group.factors)
            assert group.inv_root.shape == (k, k)
            lams, margin = dense_srm([det.op(r, *p) for p in pairs])
            assert group.margin == pytest.approx(margin, abs=TOL)
            for i, (pair, lam) in enumerate(zip(pairs, lams)):
                h = group.factor(i)
                assert h.shape == det.factors[r][pair].shape
                assert np.abs(h @ h.conj().T - lam).max() <= TOL
                assert (dec.factor(r, *pair) == h).all()
