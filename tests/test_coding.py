import inspect
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqrelay import coding
from cqrelay.channels import (
    CQChannel,
    depolarized_channel,
    holevo_chi,
    orthogonal_pure_channel,
    overlap_pair_channel,
    product_broadcast_channel,
)
from cqrelay.coding import (
    ErrorReport,
    SimConfig,
    _side_info_groups,
    _sized_message_sets,
    average_errors,
    build_square_root_decoder,
    decode_with_side_info,
    end_to_end_broadcast_sim,
    expurgate,
    modular_sum_decode,
    modular_sum_encode,
    sample_codebook,
    second_kind_collision_check,
)
from cqrelay.errors import ExpurgationError, InvalidInputError, ResourceLimitError
from cqrelay.operators import KRON_CHUNK_COLUMNS, ProbabilityDistribution, _within, trace_pair
from cqrelay.typicality import TypicalSet, averaged_state_projector, verify_conditional_projector_bounds
from test_srm_oracle import dense_op, detection_factors, factor_decoder


def uniform_binary():
    return ProbabilityDistribution.uniform(("0", "1"))


def noiseless_broadcast():
    return product_broadcast_channel(orthogonal_pure_channel(), orthogonal_pure_channel())


def noisy_broadcast(p=0.1):
    return product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(p))


def overlap_broadcast(p=0.1):
    # receiver 1 sees |0> and |+>, receiver 2 the same pair p-depolarized:
    # neither receiver's letter states commute
    pair = overlap_pair_channel()
    noisy = {a: (1.0 - p) * pair.state(a) + p * np.eye(2) / 2 for a in pair.alphabet}
    return product_broadcast_channel(pair, CQChannel(pair.alphabet, noisy))


def detection_ops(cb, bc, **kwargs):
    """receiver -> {(m1, m2): dense D' = F F†}, F read from the groups of the
    public builder's decoder with every receiver on the factor path."""
    factors = detection_factors(factor_decoder(cb, bc, **kwargs))
    return {r: {pair: dense_op(f) for pair, f in by_pair.items()} for r, by_pair in factors.items()}


# ---------------------------------------------------------------------------
# codebook sampling
# ---------------------------------------------------------------------------


def test_sample_codebook_words_are_typical():
    dist = uniform_binary()
    cb = sample_codebook(dist, 6, 3, 2, delta_code=0.5, seed=7)
    tset = TypicalSet(dist, 6, 0.5)
    assert len(cb.words) == 6
    for (m1, m2), w in cb.words.items():
        assert len(w) == 6
        assert w in tset
    assert cb.word(0, 0) == cb.words[(0, 0)]
    with pytest.raises(InvalidInputError):
        cb.word(5, 0)


def test_sample_codebook_deterministic_per_seed():
    dist = uniform_binary()
    a = sample_codebook(dist, 6, 2, 2, seed=3)
    b = sample_codebook(dist, 6, 2, 2, seed=3)
    c = sample_codebook(dist, 6, 2, 2, seed=4)
    assert a.words == b.words
    assert a.words != c.words


def test_sample_codebook_empty_typical_set():
    # delta/|A| = 0.2 strands n = 1 with no admissible count
    with pytest.raises(InvalidInputError):
        sample_codebook(uniform_binary(), 1, 2, 2, delta_code=0.4)


def test_an_empty_typical_set_is_refused_before_a_draw():
    # the set refuses itself: sample raises before it reads the generator,
    # and sample_codebook passes the same refusal on
    dist = uniform_binary()
    message = r"^typical set is empty for n=1, delta=0\.4; no words to draw$"
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(InvalidInputError, match=message):
        TypicalSet(dist, 1, 0.4).sample(rng, 50)
    assert rng.bit_generator.state == state
    with pytest.raises(InvalidInputError, match=message):
        sample_codebook(dist, 1, 2, 2, delta_code=0.4)


def test_sample_codebook_validates_sizes():
    with pytest.raises(InvalidInputError):
        sample_codebook(uniform_binary(), 4, 0, 2)


# ---------------------------------------------------------------------------
# detection operators
# ---------------------------------------------------------------------------


def test_detection_operators_are_positive_subunital():
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    ops = detection_ops(cb, bc, alpha=0.5)
    for r in (1, 2):
        for pair in cb.words:
            op = ops[r][pair]
            w = np.linalg.eigvalsh(op)
            assert w.min() >= -1e-10
            assert w.max() <= 1.0 + 1e-10


def test_detection_operators_live_inside_averaged_projector():
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    ops = detection_ops(cb, bc, alpha=0.5)
    for r in (1, 2):
        pi = averaged_state_projector(bc.marginal(r), cb.dist, cb.n, 0.5).matrix()
        for pair in cb.words:
            op = ops[r][pair]
            assert np.allclose(pi @ op @ pi, op, atol=1e-9)


def test_detection_first_kind_lower_bound_chain():
    # tr(D' V(w)) >= conditional capture - sqrt(8 (1 - cross capture)):
    # sandwiching by the averaged-state projector costs at most the tender
    # disturbance of the word state
    bc = noisy_broadcast()
    dist = uniform_binary()
    cb = sample_codebook(dist, 6, 2, 2, seed=4)
    ops = detection_ops(cb, bc, alpha=0.3)
    for r in (1, 2):
        marg = bc.marginal(r)
        for pair, w in sorted(cb.words.items()):
            got = trace_pair(ops[r][pair], marg.word_state(w))
            stats = verify_conditional_projector_bounds(marg, w, dist, 0.3).measured
            lower = stats["capture"] - math.sqrt(8.0 * max(0.0, 1.0 - stats["cross_capture"]))
            assert got >= lower - 1e-9


def test_detection_dim_cap():
    # the averaged projectors are priced as the decoder is built: their
    # masks over 2^30 index words take 4 GiB each
    bc = noiseless_broadcast()
    cb = sample_codebook(uniform_binary(), 30, 2, 2, seed=0)
    with pytest.raises(ResourceLimitError, match=r"^typical projector for n=30 needs about 4 GiB, above the 2 GiB memory budget$"):
        build_square_root_decoder(cb, bc, alpha=0.5)


# ---------------------------------------------------------------------------
# square-root decoder
# ---------------------------------------------------------------------------


def test_decoder_subpovm_margins_nonpositive():
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 6, 2, 2, seed=4)
    dec = build_square_root_decoder(cb, bc, alpha=0.3)
    margins = average_errors(dec).margins
    for r in (1, 2):
        for margin in margins[r].values():
            assert margin <= 1e-9


def test_decoder_groups_sum_to_projector():
    # each side-information group sums to the support projector of its
    # detection-operator total, never exceeding the identity
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    dec = build_square_root_decoder(cb, bc, alpha=0.5)
    for m2 in range(cb.m2_size):
        group = dec.group(1, m2)
        total = sum(dense_op(group.factor(m1)) for m1 in range(cb.m1_size))
        w = np.linalg.eigvalsh(total)
        assert w.max() <= 1.0 + 1e-9
        assert w.min() >= -1e-10
        # eigenvalues cluster at 0 and 1: it is a projector
        assert np.all((w < 1e-6) | (w > 1 - 1e-6))


def test_side_info_groups_on_an_asymmetric_codebook():
    # receiver 1 knows m2 and resolves m1 among three; receiver 2 knows m1
    # and resolves m2 among two
    groups = {
        1: {0: [(0, 0), (1, 0), (2, 0)], 1: [(0, 1), (1, 1), (2, 1)]},
        2: {0: [(0, 0), (0, 1)], 1: [(1, 0), (1, 1)], 2: [(2, 0), (2, 1)]},
    }
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 3, 2, seed=1)
    dec = build_square_root_decoder(cb, bc, alpha=0.5)
    margins = average_errors(dec).margins
    for r, by_known in groups.items():
        assert sorted(margins[r]) == sorted(by_known)
        for known, pairs in by_known.items():
            # the decoder normalized exactly this group: its operators sum to a projector
            group = dec.group(r, known)
            ops = [dense_op(group.factor(i)) for i in range(len(pairs))]
            w = np.linalg.eigvalsh(sum(ops))
            assert np.all((w < 1e-6) | (w > 1 - 1e-6))
            for index, pair in enumerate(pairs):
                state = bc.marginal(r).word_state(cb.word(*pair))
                probs = [trace_pair(op, state) for op in ops]
                assert decode_with_side_info(dec, r, known, state) == int(np.argmax(probs)) == index
    state = bc.marginal(1).word_state(cb.word(2, 0))
    with pytest.raises(InvalidInputError):
        decode_with_side_info(dec, 1, 2, state)  # m2 takes two values only


def test_decoder_missing_pair_raises():
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    dec = build_square_root_decoder(cb, bc, alpha=0.5)
    with pytest.raises(InvalidInputError):
        dec.group(1, 7)


# ---------------------------------------------------------------------------
# error evaluation
# ---------------------------------------------------------------------------


def test_average_errors_consistency():
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 6, 2, 2, seed=4)
    dec = build_square_root_decoder(cb, bc, alpha=0.3)
    report = average_errors(dec)
    # per-pair errors match the direct evaluation
    for r in (1, 2):
        for known, pairs in _side_info_groups(r, cb.m1_size, cb.m2_size).items():
            group = dec.group(r, known)
            for index, pair in enumerate(pairs):
                state = bc.marginal(r).word_state(cb.words[pair])
                direct = max(0.0, 1.0 - trace_pair(dense_op(group.factor(index)), state))
                assert report.first_kind[r][pair] == pytest.approx(direct, abs=1e-12)
    # averages recompute from the tables
    for m2 in range(cb.m2_size):
        vals = [report.first_kind[1][(m1, m2)] for m1 in range(cb.m1_size)]
        assert report.avg_by_m2[m2] == pytest.approx(np.mean(vals), abs=1e-12)
    assert report.overall[1] == pytest.approx(
        np.mean(list(report.first_kind[1].values())), abs=1e-12
    )
    # removing the normalization costs at most 2x miss + 4x collision mass
    assert report.decomposition_ok
    for r in (1, 2):
        for pair in cb.words:
            assert report.first_kind[r][pair] <= report.decomposition_bounds[r][pair] + 1e-9
    json.dumps(report.as_dict())


@pytest.mark.parametrize("channel", [noisy_broadcast, overlap_broadcast], ids=["diagonal", "factor"])
def test_the_error_pass_holds_one_group_at_a_time(monkeypatch, channel):
    # the decoder holds no group: average_errors builds one, reads it and
    # drops it before it builds the next, and none outlives the call
    built = []

    def spy(make):
        def build(*args):
            assert [ref for ref in built if ref() is not None] == [], "an earlier group is still reachable"
            group = make(*args)
            built.append(weakref.ref(group))
            return group

        return build

    monkeypatch.setattr(coding, "_diagonal_group", spy(coding._diagonal_group))
    monkeypatch.setattr(coding, "_normalize_group", spy(coding._normalize_group))
    bc = channel()
    cb = sample_codebook(ProbabilityDistribution.uniform(bc.alphabet), 6, 3, 2, seed=4)
    dec = build_square_root_decoder(cb, bc, alpha=0.3)
    assert built == []
    report = average_errors(dec)
    assert len(built) == cb.m1_size + cb.m2_size
    assert all(ref() is None for ref in built)
    sizes = (cb.m1_size, cb.m2_size)
    assert report.margins == {r: {k: dec.group(r, k).margin for k in _side_info_groups(r, *sizes)} for r in (1, 2)}


def test_noiseless_channel_decodes_perfectly():
    bc = noiseless_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    dec = build_square_root_decoder(cb, bc, alpha=0.5)
    report = average_errors(dec)
    # distinct orthogonal words: all detection masses are 0/1 exactly
    if len(set(cb.words.values())) == len(cb.words):
        assert report.overall[1] == pytest.approx(0.0, abs=1e-10)
        assert report.overall[2] == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# second-kind collision budget
# ---------------------------------------------------------------------------


def test_second_kind_exact_orthogonal_is_tight():
    # orthogonal outputs: collision mass equals the budget exactly since the
    # compressed state is flat on the typical subspace
    bc = noiseless_broadcast()
    out = second_kind_collision_check(uniform_binary(), bc, n=4, alpha=0.5)
    assert out["within_budget"]
    assert out["estimate"] == pytest.approx(out["budget"], abs=1e-12)
    # counts of "0" in {1, 2, 3}: 4 + 6 + 4 typical words
    assert out["trials"] == 14**2


def test_second_kind_exact_within_budget_noisy():
    bc = noisy_broadcast(0.1)
    out = second_kind_collision_check(uniform_binary(), bc, n=6, alpha=0.5)
    assert out["within_budget"]
    assert out["estimate"] <= out["budget"] + 1e-12
    assert out["eps_slack"] == pytest.approx(
        out["chi2_bits"] + math.log2(out["budget"]) / 6, abs=1e-12
    )


def test_second_kind_zero_budget_reports_no_slack():
    # at alpha 0.01 no conditional projector keeps a vector, so the budget is 0
    out = second_kind_collision_check(uniform_binary(), noisy_broadcast(), n=4, alpha=0.01)
    assert out["budget"] == 0.0
    assert out["eps_slack"] is None
    json.dumps(out, allow_nan=False)


def test_the_second_kind_check_decomposes_each_letter_once(monkeypatch):
    # one eigh for each letter of receiver 2 and one for its averaged state,
    # however many type classes the check reads
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: calls.append(a.shape) or original(a, *r, **k))
    out = second_kind_collision_check(uniform_binary(), noisy_broadcast(), n=6, alpha=0.5)
    assert out["mean_conditional_rank"] > 0.0
    assert calls == [(2, 2)] * 3


def test_the_exact_second_kind_check_streams_each_detection_factor(monkeypatch):
    # at n = 10 the mean conditional rank is 91, so D' has more than
    # KRON_CHUNK_COLUMNS columns; the mixture sees one column chunk at a time
    widths = []
    original = TypicalSet.mixture_apply

    def spy(self, channel, block):
        widths.append(block.shape[1])
        return original(self, channel, block)

    monkeypatch.setattr(TypicalSet, "mixture_apply", spy)
    out = second_kind_collision_check(uniform_binary(), noisy_broadcast(), n=10, alpha=0.3)
    assert out["mean_conditional_rank"] > KRON_CHUNK_COLUMNS
    assert max(widths) == KRON_CHUNK_COLUMNS
    # the chunked traces reorder the sum, so the figure of the whole-block
    # trace, 0.0979371174996605, is kept to roundoff
    assert out["estimate"] == pytest.approx(0.0979371174996605, rel=1e-12, abs=0.0)


def test_second_kind_dim_cap():
    # at n = 20 the exact check's partial sums of the typical mixture alone
    # take 2^20 x 32 x 8 bytes each; it is refused before the averaged
    # projector or any detection factor is built
    bc = noiseless_broadcast()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"^second-kind check for n=20 needs about [0-9.]+ GiB, above the 2 GiB memory budget$"):
            second_kind_collision_check(uniform_binary(), bc, n=20, alpha=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_the_entry_points_take_only_what_their_callers_pass():
    # the README and CI call the second-kind check with (dist, bc, n, alpha),
    # simulate reads its error pass from the decoder alone, and a decoded
    # state is one argmax decision: no mode, sample size or second source
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(second_kind_collision_check) == ["dist", "bc", "n", "alpha", "preset"]
    assert params(decode_with_side_info) == ["decoder", "receiver", "known_message", "state"]
    assert params(average_errors) == ["decoder"]


# ---------------------------------------------------------------------------
# expurgation
# ---------------------------------------------------------------------------


def synthetic_report(first1, first2):
    m1_size = 1 + max(k[0] for k in first1)
    m2_size = 1 + max(k[1] for k in first1)
    return ErrorReport(
        n=1,
        m1_size=m1_size,
        m2_size=m2_size,
        first_kind={1: dict(first1), 2: dict(first2)},
        collisions={1: {}, 2: {}},
        decomposition_bounds={1: {}, 2: {}},
        decomposition_ok=True,
    )


def test_expurgation_keeps_better_half_and_respects_bounds():
    rng = np.random.default_rng(42)
    for _ in range(10):
        m1s, m2s = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        first1 = {(i, j): float(rng.uniform(0, 0.4)) for i in range(m1s) for j in range(m2s)}
        first2 = {(i, j): float(rng.uniform(0, 0.4)) for i in range(m1s) for j in range(m2s)}
        report = synthetic_report(first1, first2)
        delta = max(report.overall[1], report.overall[2]) + 0.01
        result = expurgate(report, delta)
        assert len(result.m2_kept) == math.ceil(m2s / 2)
        assert len(result.m1_kept) == math.ceil(m1s / 2)
        # kept sets hold the smallest selection averages
        kept_max = max(report.avg_by_m2[m2] for m2 in result.m2_kept)
        dropped_min = min(
            (report.avg_by_m2[m2] for m2 in range(m2s) if m2 not in result.m2_kept),
            default=float("inf"),
        )
        assert kept_max <= dropped_min + 1e-12
        assert result.within_two_delta
        assert result.within_four_delta
        # final averages recompute from the tables over kept pairs
        for m2 in result.m2_kept:
            vals = [first1[(m1, m2)] for m1 in result.m1_kept]
            assert result.final_error_by_m2[m2] == pytest.approx(np.mean(vals), abs=1e-12)


@st.composite
def error_tables(draw):
    """Both receivers' first-kind error tables over an M1 x M2 codebook."""
    m1_size, m2_size = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pairs = [(m1, m2) for m1 in range(m1_size) for m2 in range(m2_size)]
    value = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-13, 0.5, 1.0]))
    return [dict(zip(pairs, draw(st.lists(value, min_size=len(pairs), max_size=len(pairs))))) for _ in (1, 2)]


@settings(max_examples=100, deadline=None)
@given(error_tables(), st.floats(1.0, 4.0))
@example([{(0, 0): 0.0}, {(0, 0): 5e-324}], 1.0)
@example([{(0, 0): 0.0}, {(0, 0): 1e-100}], 1.0)
@example([{(0, 0): 0.0}, {(0, 0): 0.5}], 1.0)
def test_expurgation_bounds_hold_on_any_error_table(tables, slack):
    # for any delta at or above both global averages: each message set keeps
    # its better half, every kept group average is <= 2 delta and every
    # average over the kept pairs <= 4 delta (Markov, then halving)
    report = synthetic_report(*tables)
    worst = max(report.overall.values())
    delta = worst * slack if worst > 0.0 else slack
    result = expurgate(report, delta)
    assert result.within_two_delta and result.within_four_delta
    for kept, averages, size in (
        (result.m2_kept, report.avg_by_m2, report.m2_size),
        (result.m1_kept, report.avg_by_m1, report.m1_size),
    ):
        assert len(kept) == math.ceil(size / 2) and kept == tuple(sorted(set(kept)))
        dropped = [v for k, v in averages.items() if k not in kept]
        assert max(averages[k] for k in kept) <= min(dropped, default=math.inf) + 1e-12
        assert all(averages[k] <= 2.0 * delta + 1e-12 for k in kept)
    for m2 in result.m2_kept:
        final = float(np.mean([tables[0][(m1, m2)] for m1 in result.m1_kept]))
        assert result.final_error_by_m2[m2] == final <= 4.0 * delta + 1e-12
    for m1 in result.m1_kept:
        final = float(np.mean([tables[1][(m1, m2)] for m2 in result.m2_kept]))
        assert result.final_error_by_m1[m1] == final <= 4.0 * delta + 1e-12
    if worst > 0.0:
        # a delta below the worst average by more than the report
        # tolerance must not expurgate, and one within it counts as equal;
        # halving the smallest subnormal average rounds to 0.0, which is no
        # valid delta
        below = worst / 2
        if below == 0.0:
            with pytest.raises(InvalidInputError):
                expurgate(report, below)
        elif not _within(worst, below):
            with pytest.raises(ExpurgationError):
                expurgate(report, below)
        else:
            assert expurgate(report, below).within_two_delta


def test_expurgation_tie_break_prefers_lower_index():
    first1 = {(i, j): 0.1 for i in range(4) for j in range(4)}
    first2 = dict(first1)
    report = synthetic_report(first1, first2)
    result = expurgate(report, 0.2)
    assert result.m1_kept == (0, 1)
    assert result.m2_kept == (0, 1)


def test_expurgation_near_tie_goes_to_lower_index():
    # m2 = 0 and m2 = 2 average 0.2 up to a 1e-15 roundoff, which must not
    # decide which of them is kept: within 1e-12 of the cutoff they tie
    first1 = {(0, 0): 0.2, (0, 1): 0.1, (0, 2): 0.2 - 1e-15, (0, 3): 0.3}
    report = synthetic_report(first1, dict(first1))
    assert report.avg_by_m2[2] < report.avg_by_m2[0]
    result = expurgate(report, 0.25)
    assert result.m2_kept == (0, 1)
    assert result.selection_error_by_m2 == {0: 0.2, 1: 0.1}
    # two groups: the lower index wins a near tie whichever side it is on
    for gap in (1e-15, -1e-15):
        pair = synthetic_report({(0, 0): 0.005 + gap, (0, 1): 0.005}, {(0, 0): 0.0, (0, 1): 0.0})
        assert expurgate(pair, 0.25).m2_kept == (0,)
    # a gap above the tolerance still orders the averages
    first1[(0, 2)] = 0.2 - 1e-11
    assert expurgate(synthetic_report(first1, dict(first1)), 0.25).m2_kept == (1, 2)


def test_expurgation_rejects_large_average():
    first1 = {(i, j): 0.6 for i in range(2) for j in range(2)}
    report = synthetic_report(first1, dict(first1))
    with pytest.raises(ExpurgationError):
        expurgate(report, 0.25)
    with pytest.raises(InvalidInputError):
        expurgate(report, 0.0)


def test_expurgation_on_real_pipeline():
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 6, 2, 2, seed=4)
    dec = build_square_root_decoder(cb, bc, alpha=0.3)
    report = average_errors(dec)
    result = expurgate(report, 0.25)
    assert result.within_two_delta
    assert result.within_four_delta
    json.dumps(result.as_dict())


# ---------------------------------------------------------------------------
# side-information decoding
# ---------------------------------------------------------------------------


def test_decode_with_side_info_argmax_noiseless():
    bc = noiseless_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    dec = build_square_root_decoder(cb, bc, alpha=0.5)
    for (m1, m2), w in cb.words.items():
        got1 = decode_with_side_info(dec, 1, m2, bc.marginal(1).word_state(w))
        got2 = decode_with_side_info(dec, 2, m1, bc.marginal(2).word_state(w))
        assert got1 == m1
        assert got2 == m2


def test_decode_with_side_info_validation():
    bc = noiseless_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    dec = build_square_root_decoder(cb, bc, alpha=0.5)
    state = bc.marginal(1).word_state(cb.word(0, 0))
    with pytest.raises(InvalidInputError):
        decode_with_side_info(dec, 3, 0, state)
    with pytest.raises(InvalidInputError):
        decode_with_side_info(dec, 1, 9, state)
    # neither a square matrix nor a list of square tensor factors
    for bad in (np.ones(16), [np.ones(2)] * 4, [], 1.0, [np.ones((2, 3))] * 4):
        with pytest.raises(InvalidInputError):
            decode_with_side_info(dec, 1, 0, bad)
    # square factors whose dimensions do not multiply to the group's
    with pytest.raises(InvalidInputError):
        decode_with_side_info(dec, 1, 0, [np.eye(2) / 2] * 3)


@pytest.mark.parametrize("scheme", ["proof-construction", "modular-sum"])
@pytest.mark.parametrize("delta,attempts", [(1.0, 1), (1e-12, 2)])
def test_each_attempt_forms_each_normalized_factor_once(monkeypatch, scheme, delta, attempts):
    # the error tables, the decoding and the modular-sum outcome table read
    # one outcome table per group, so each H block is formed once; neither
    # receiver's letter states commute, so every group is on the factor path
    reads = []
    form = coding._NormalizedGroup.factor

    def factor(group, i):
        reads.append((group, i))
        return form(group, i)

    monkeypatch.setattr(coding._NormalizedGroup, "factor", factor)
    config = {
        "n": 6, "M1": 3, "M2": 3 if scheme == "modular-sum" else 2, "alpha": 0.3, "seed": 2,
        "scheme": scheme, "delta": delta, "max_seed_attempts": 2,
    }
    report = end_to_end_broadcast_sim(overlap_broadcast(), config)
    assert report["attempts_used"] == attempts
    assert report["status"] == ("ok" if attempts == 1 else "threshold-not-met")
    groups = {id(group): group for group, _ in reads}
    # every group is kept alive by reads, so ids do not repeat
    per_attempt = 2 if scheme == "modular-sum" else config["M1"] + config["M2"]
    assert len(groups) == attempts * per_attempt
    assert sorted((id(g), i) for g, i in reads) == sorted(
        (key, i) for key, g in groups.items() for i in range(len(g))
    )


@pytest.mark.parametrize("scheme", ["proof-construction", "modular-sum"])
def test_commuting_letters_take_the_diagonal_path(monkeypatch, scheme):
    # both receivers' letter states are diagonal in their averaged
    # projectors' basis, so no detection factor and no Gram matrix is formed
    def refuse(*args):
        raise AssertionError("factor path taken")

    monkeypatch.setattr(coding.TypicalProjector, "sandwiched_factor", refuse)
    monkeypatch.setattr(coding, "_normalize_group", refuse)
    config = {"n": 6, "M1": 3, "M2": 3 if scheme == "modular-sum" else 2, "alpha": 0.3, "seed": 2, "scheme": scheme}
    assert end_to_end_broadcast_sim(noisy_broadcast(), config)["status"] == "ok"


def test_the_builder_decomposes_each_letter_once(monkeypatch):
    # one eigh per averaged state and one per letter and receiver: the
    # diagonal-basis check reads the eigenpairs the masks read
    bc = noisy_broadcast()
    cb = sample_codebook(uniform_binary(), 4, 2, 2, seed=1)
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: calls.append(a.shape) or original(a, *r, **k))
    dec = build_square_root_decoder(cb, bc, alpha=0.5)
    assert calls == [(2, 2)] * 6
    assert all(isinstance(dec.group(r, 0), coding._DiagonalGroup) for r in (1, 2))


# ---------------------------------------------------------------------------
# modular-sum arithmetic
# ---------------------------------------------------------------------------


def test_modular_sum_roundtrip_exhaustive():
    for size in range(1, 17):
        for m1 in range(size):
            for m2 in range(size):
                common = modular_sum_encode(m1, m2, size)
                assert 0 <= common < size
                assert modular_sum_decode(common, m2, size) == m1
                assert modular_sum_decode(common, m1, size) == m2


def test_modular_sum_validation():
    with pytest.raises(InvalidInputError):
        modular_sum_encode(2, 0, 2)
    with pytest.raises(InvalidInputError):
        modular_sum_encode(0, 0, 0)
    with pytest.raises(InvalidInputError):
        modular_sum_decode(0, 5, 4)


# ---------------------------------------------------------------------------
# simulation configs and end-to-end runs
# ---------------------------------------------------------------------------


def test_sim_config_from_dict():
    cfg = SimConfig.from_dict({"n": 4, "M1": 2, "M2": 3, "alpha": 0.3})
    assert cfg.m1_size == 2 and cfg.m2_size == 3
    assert cfg.alpha == 0.3
    with pytest.raises(InvalidInputError):
        SimConfig.from_dict({"n": 4, "mystery": 1})
    with pytest.raises(InvalidInputError):
        SimConfig.from_dict({"alpha": 0.5})
    with pytest.raises(InvalidInputError):
        SimConfig.from_dict({"n": 4, "scheme": "wishful"})
    with pytest.raises(InvalidInputError):
        SimConfig.from_dict({"n": 0})


def test_end_to_end_noiseless_proof_construction():
    bc = noiseless_broadcast()
    report = end_to_end_broadcast_sim(
        bc, {"n": 4, "M1": 2, "M2": 2, "alpha": 0.5, "seed": 1}
    )
    assert report["status"] == "ok"
    assert report["chi1_bits"] == pytest.approx(1.0, abs=1e-12)
    assert report["decode"]["all_correct"]
    assert report["errors"]["overall_1"] == pytest.approx(0.0, abs=1e-10)
    assert report["errors"]["overall_2"] == pytest.approx(0.0, abs=1e-10)
    for group in report["subpovm_margins"].values():
        for margin in group.values():
            assert margin <= 1e-9
    json.dumps(report)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.6, 0.4)])
def test_default_epsilon_gives_the_weaker_receiver_two_messages(weights):
    # n (chi - 2 eps) = 1 for the weaker receiver; roundoff in that exponent
    # must not floor its message set to 1
    dist = ProbabilityDistribution(("0", "1"), np.array(weights))
    for p in np.arange(1, 20) / 20:
        bc = noisy_broadcast(float(p))
        chi1, chi2 = (holevo_chi(bc.marginal(r), dist) for r in (1, 2))
        for n in range(1, 13):
            sizes = _sized_message_sets(SimConfig(n=n), chi1, chi2, (2**n, 2**n), [])
            if sizes != (0, 0):  # default epsilon > 0
                assert min(sizes) == 2, (p, n, sizes)


def test_end_to_end_modular_sum_default_size_reaches_two():
    report = end_to_end_broadcast_sim(
        noisy_broadcast(), {"n": 6, "alpha": 0.3, "seed": 4, "scheme": "modular-sum"}
    )
    assert report["sizes"] == {"common": 2}
    assert report["status"] == "ok"


def test_end_to_end_deterministic():
    bc = noisy_broadcast()
    cfg = {"n": 4, "M1": 2, "M2": 2, "alpha": 0.3, "seed": 3}
    a = end_to_end_broadcast_sim(bc, cfg)
    b = end_to_end_broadcast_sim(bc, cfg)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_end_to_end_infeasible_at_tiny_n():
    bc = noiseless_broadcast()
    report = end_to_end_broadcast_sim(bc, {"n": 1})
    assert report["status"] == "infeasible"


def test_end_to_end_threshold_not_met():
    bc = noisy_broadcast(0.9)
    report = end_to_end_broadcast_sim(
        bc,
        {"n": 4, "M1": 2, "M2": 2, "alpha": 0.5, "seed": 0, "max_seed_attempts": 1, "delta": 1e-6},
    )
    assert report["status"] == "threshold-not-met"
    assert report["attempts_used"] == 1
    assert "errors" in report
    json.dumps(report)


def test_end_to_end_requires_both_sizes():
    bc = noiseless_broadcast()
    with pytest.raises(InvalidInputError):
        end_to_end_broadcast_sim(bc, {"n": 4, "M1": 2})


def test_end_to_end_modular_sum_noiseless():
    bc = noiseless_broadcast()
    report = end_to_end_broadcast_sim(
        bc, {"n": 4, "M1": 4, "M2": 4, "alpha": 0.5, "seed": 0, "scheme": "modular-sum"}
    )
    assert report["status"] == "ok"
    assert report["sizes"] == {"common": 4}
    assert report["decode"]["all_correct"]
    assert report["common_errors"]["avg_receiver1"] == pytest.approx(0.0, abs=1e-10)
    assert report["common_errors"]["avg_receiver2"] == pytest.approx(0.0, abs=1e-10)
    assert len(report["decode"]["table"]) == 16
    json.dumps(report)


def test_end_to_end_modular_sum_rejects_mismatched_sizes():
    bc = noiseless_broadcast()
    with pytest.raises(InvalidInputError):
        end_to_end_broadcast_sim(
            bc, {"n": 4, "M1": 2, "M2": 4, "scheme": "modular-sum"}
        )


def test_end_to_end_dist_override():
    bc = noisy_broadcast()
    report = end_to_end_broadcast_sim(
        bc, {"n": 4, "M1": 2, "M2": 2, "alpha": 0.5, "dist": [0.5, 0.5]}
    )
    assert report["input_weights"] == [0.5, 0.5]
    with pytest.raises(InvalidInputError):
        end_to_end_broadcast_sim(bc, {"n": 4, "M1": 2, "M2": 2, "dist": [0.2, 0.3, 0.5]})


@pytest.mark.parametrize("scheme", ["proof-construction", "modular-sum"])
def test_averaged_state_projectors_are_built_once_per_run(monkeypatch, scheme):
    # the projectors do not depend on the seed, so three failed attempts
    # build one per receiver, not one per receiver and attempt
    calls = []
    build = coding.averaged_state_projector

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(coding, "averaged_state_projector", counted)
    config = {
        "n": 4, "M1": 2, "M2": 2, "alpha": 0.5, "seed": 0, "scheme": scheme,
        "max_seed_attempts": 3, "delta": 1e-6,
    }
    report = end_to_end_broadcast_sim(noisy_broadcast(0.9), config)
    assert (report["status"], report["attempts_used"]) == ("threshold-not-met", 3)
    assert len(calls) == 2


def test_simulate_n10_allocations_stay_bounded():
    # the benchmark's sim-n10 run (generate product-broadcast --p 0.1): the
    # decoder keeps G^{+1/2} per group and one normalized block at a time, and
    # mode products stream in column chunks, so numpy's allocations peak near
    # the detection factors (about 11.7 MiB; 16.3 MiB with every normalized
    # factor kept beside a stacked copy of its group)
    config = {"n": 10, "M1": 2, "M2": 2, "alpha": 0.3, "seed": 11}
    tracemalloc.start()
    try:
        report = end_to_end_broadcast_sim(noisy_broadcast(0.1), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["status"] == "ok"
    assert peak <= 13 * 2**20
