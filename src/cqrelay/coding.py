"""Random codebooks, square-root-measurement decoding, and end-to-end runs.

The decoder construction sandwiches each word's conditional typical projector
between averaged-state projectors and square-root normalizes the resulting
detection operators over the messages that share a side-information index.
Detection operators are held only as their N x K factors F.  The
normalization runs on the K x K Gram matrix G = F†F of each group, and the
decoder keeps G^{+1/2} per group, not the normalized factors H = F G^{+1/2}:
an H block is formed when the group's outcome table reads it and freed after
use; the error tables, the decoding and the modular-sum scheme read that one
table, so a run forms each H block once.  Product operators (the
averaged-state projector, word states) are held as their n single-letter
factors and applied as fused mode products, one column chunk at a time, so
no N x N array is formed and no temporary grows with K.  All error figures
are exact traces; sampling enters only through codebook generation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import BroadcastCQChannel, CQChannel, holevo_chi
from .errors import ExpurgationError, InvalidInputError
from .operators import (
    DEFAULT_DIM_CAP,
    ProbabilityDistribution,
    _integral,
    _require_within_cap,
    hermitian_part,
    kron_column_chunks,
    multinomial_coefficient,
    pseudo_sqrt_inverse,
)
from .typicality import (
    PRESET_FIXED,
    TypicalSet,
    averaged_state_projector,
    conditional_typical_projector,
    resolve_preset,
    spectrum_projector_stats,
)


@dataclass(frozen=True)
class Codebook:
    """Sampled word table indexed by message pairs (m1, m2)."""

    n: int
    m1_size: int
    m2_size: int
    words: dict  # (m1, m2) -> tuple of letters
    dist: ProbabilityDistribution
    delta_code: float
    seed: int

    def word(self, m1: int, m2: int) -> tuple:
        try:
            return self.words[(m1, m2)]
        except KeyError:
            raise InvalidInputError(f"message pair ({m1}, {m2}) outside the codebook") from None

    def distinct_words(self) -> list:
        seen = []
        for pair in sorted(self.words):
            w = self.words[pair]
            if w not in seen:
                seen.append(w)
        return seen


def sample_codebook(
    dist: ProbabilityDistribution,
    n: int,
    m1_size: int,
    m2_size: int,
    delta_code: float = 0.5,
    seed: int = 0,
) -> Codebook:
    """Draw words i.i.d. from the input distribution, kept only when typical."""
    if m1_size < 1 or m2_size < 1:
        raise InvalidInputError("message set sizes must be >= 1")
    tset = TypicalSet(dist, n, delta_code)
    if tset.is_empty():
        raise InvalidInputError(
            f"typical set is empty for n={n}, delta={delta_code}; no words to sample"
        )
    rng = np.random.default_rng(seed)
    words = {}
    for m1 in range(m1_size):
        for m2 in range(m2_size):
            words[(m1, m2)] = tset.sample(rng, 100_000)
    return Codebook(
        n=n,
        m1_size=m1_size,
        m2_size=m2_size,
        words=words,
        dist=dist,
        delta_code=delta_code,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Detection operators and square-root normalization.
# ---------------------------------------------------------------------------


def _word_factors(channel: CQChannel, word) -> list:
    """The word's output state W(x_1) (x) ... (x) W(x_n), as its tensor factors."""
    return [channel.state(a) for a in word]


def _factor_trace(factor: np.ndarray, state) -> float:
    """Real part of tr(F† rho F) = tr(rho F F†) for an N x K factor F.

    state lists the tensor factors of rho; a dense N x N state is the
    one-factor list.  rho is applied to one column chunk of F at a time and
    the chunks' traces are summed.
    """
    chunks = kron_column_chunks(state, factor)
    return float(sum(np.vdot(factor[:, cols], product).real for cols, product in chunks))


def _trace_table(blocks, states) -> np.ndarray:
    """The table of tr(B_k† rho_c B_k), row c for state c (its list of tensor
    factors) and column k for block k.  Each block is read once, so a lazy
    map(group.factor, ...) forms each H_k once; map frees it before the next."""
    columns = list(map(lambda block: [_factor_trace(block, state) for state in states], blocks))
    return np.array(columns, dtype=float).reshape(len(columns), len(states)).T


def _factor_op(factor: np.ndarray) -> np.ndarray:
    return hermitian_part(factor @ factor.conj().T)


def _averaged_projectors(bc: BroadcastCQChannel, dist, n: int, alpha, preset, dim_cap) -> dict:
    """receiver -> typical projector of its n-fold averaged output state.

    They depend on the input distribution and not on the codebook, so a run
    builds them once for all its seeds.
    """
    return {r: averaged_state_projector(bc.marginal(r), dist, n, alpha, preset, dim_cap) for r in (1, 2)}


def _sandwiched_detection(channel: CQChannel, proj, words, alpha, preset, dim_cap):
    """Per word, the detection factor sandwiched by the averaged-state projector.

    Returns ({word: factor}, {word: rank}).  The factor F = Pi V, with V the
    conditional projector's included vectors, is N x rank and satisfies
    D' = Pi P_w Pi = F F†; Pi itself is never formed.
    """
    factors, ranks = {}, {}
    for w in words:
        if w not in factors:
            cond = conditional_typical_projector(channel, w, alpha, preset, dim_cap)
            ranks[w] = cond.rank
            factors[w] = cond.sandwiched_factor(proj)
    return factors, ranks


@dataclass(frozen=True, eq=False)
class DetectionOperators:
    """Per-word sandwiched detection operators D' = F F† for both receivers,
    held as their N x rank factors F."""

    codebook: Codebook
    alpha: float
    preset: str
    projectors: dict  # receiver -> TypicalProjector of the averaged state
    factors: dict  # receiver -> {(m1, m2): factor F}
    cond_ranks: dict  # receiver -> {(m1, m2): conditional projector rank}

    def op(self, receiver: int, m1: int, m2: int) -> np.ndarray:
        """Dense D' = F F†, formed on request."""
        return _factor_op(self.factors[receiver][(m1, m2)])


def build_detection_operators(
    codebook: Codebook,
    bc: BroadcastCQChannel,
    alpha: float = 1.0,
    preset: str = PRESET_FIXED,
    dim_cap: int = DEFAULT_DIM_CAP,
    projectors: dict | None = None,
) -> DetectionOperators:
    """Both receivers' detection factors for the codebook's words.

    projectors maps each receiver to the averaged-state projector of
    codebook.dist at the same n, alpha and preset; it is built here when not
    given, and a caller that realizes several codebooks passes it in.
    """
    preset = resolve_preset(preset)
    if projectors is None:
        projectors = _averaged_projectors(bc, codebook.dist, codebook.n, alpha, preset, dim_cap)
    words = [codebook.words[pair] for pair in sorted(codebook.words)]
    factors, ranks = {}, {}
    for receiver in (1, 2):
        factor_by_word, rank_by_word = _sandwiched_detection(
            bc.marginal(receiver), projectors[receiver], words, alpha, preset, dim_cap
        )
        factors[receiver] = {pair: factor_by_word[w] for pair, w in sorted(codebook.words.items())}
        ranks[receiver] = {pair: rank_by_word[w] for pair, w in sorted(codebook.words.items())}
    return DetectionOperators(
        codebook=codebook,
        alpha=float(alpha),
        preset=preset,
        projectors=projectors,
        factors=factors,
        cond_ranks=ranks,
    )


# The Gram matrix and the normalized factors are built from row panels of the
# detection factors, so their temporaries have PANEL_ROWS rows whatever N is.
PANEL_ROWS = 1024


def _row_panels(rows: int):
    return (slice(start, start + PANEL_ROWS) for start in range(0, rows, PANEL_ROWS))


@dataclass(frozen=True, eq=False)
class _NormalizedGroup:
    """Square-root normalization of one detection-operator group.

    With F = [F_1 ... F_M] and its Gram matrix G = F†F (K x K), the
    normalized factors are H = F G^{+1/2}, so that H_i H_i† = S^{-1/2} D_i S^{-1/2}
    for S = sum_i D_i: FF† and G share their nonzero spectrum, so the pseudo
    inverse keeps the same eigenvalues.  The group holds the F_i (the
    detection factors themselves, not a copy), inv_root = G^{+1/2} and the
    column offsets of the F_i in F; factor(i) forms H_i when it is read.
    margin is the largest eigenvalue of (sum of normalized ops - identity);
    a sub-POVM keeps it <= ~0 and an all-zero group gives -1.
    """

    factors: tuple
    inv_root: np.ndarray
    offsets: tuple  # F_i is columns offsets[i]:offsets[i + 1] of F
    margin: float

    def factor(self, i: int) -> np.ndarray:
        """H_i = sum_k F_k G^{+1/2}[block k, block i], formed one row panel at a time."""
        cols = slice(self.offsets[i], self.offsets[i + 1])
        weights = [self.inv_root[lo:hi, cols] for lo, hi in zip(self.offsets, self.offsets[1:])]
        out = np.zeros((self.factors[i].shape[0], cols.stop - cols.start), dtype=complex)
        for panel in _row_panels(out.shape[0]):
            for f, w in zip(self.factors, weights):
                out[panel] += f[panel] @ w
        return out


def _gram(factors, offsets) -> np.ndarray:
    """G = F†F for F = [F_1 ... F_M], block by block and one row panel at a
    time: G_ij = F_i† F_j for i <= j, summed over the panels, and G_ji = G_ij†."""
    gram = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    spans = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    for panel in _row_panels(factors[0].shape[0]):
        for i, left in enumerate(factors):
            left = left[panel].conj().T
            for j in range(i, len(factors)):
                gram[spans[i], spans[j]] += left @ factors[j][panel]
    for i, j in itertools.combinations(range(len(spans)), 2):
        gram[spans[j], spans[i]] = gram[spans[i], spans[j]].conj().T
    return hermitian_part(gram)


def _normalize_group(factors) -> _NormalizedGroup:
    """Square-root normalization of one detection-operator group; see _NormalizedGroup."""
    factors = tuple(factors)
    offsets = (0, *np.cumsum([f.shape[1] for f in factors]).tolist())
    if offsets[-1] == 0:
        return _NormalizedGroup(factors, np.zeros((0, 0), dtype=complex), offsets, -1.0)
    gram = _gram(factors, offsets)
    inv_root = pseudo_sqrt_inverse(gram)
    margin = float(np.linalg.eigvalsh(hermitian_part(inv_root @ gram @ inv_root))[-1]) - 1.0
    return _NormalizedGroup(factors, inv_root, offsets, margin)


@dataclass(frozen=True, eq=False)
class SquareRootDecoder:
    """Square-root decoding operators Λ = H H† of each side-information group;
    receiver r resolves its own message index given the other index as side
    information.

    Per group the decoder holds the detection factors F, R = G^{+1/2} of
    their Gram matrix and the block offsets, not the normalized factors: H
    is formed from F and R when it is read (factor, op, a group's outcome
    table) and is not kept.
    """

    m1_size: int
    m2_size: int
    groups: dict  # receiver -> {known index: _NormalizedGroup}; receiver 1 knows m2

    @property
    def subpovm_margins(self) -> dict:
        """Receiver 1: {m2: margin}; receiver 2: {m1: margin}."""
        return {r: {known: g.margin for known, g in by_known.items()} for r, by_known in self.groups.items()}

    def factor(self, receiver: int, m1: int, m2: int) -> np.ndarray:
        """The normalized factor H of the pair's operator, formed on request."""
        known, index = (m2, m1) if receiver == 1 else (m1, m2)
        group = self.groups.get(receiver, {}).get(known)
        if group is None or index not in range(len(group.factors)):
            raise InvalidInputError(f"decoder has no operator for receiver {receiver}, pair ({m1}, {m2})")
        return group.factor(int(index))

    def op(self, receiver: int, m1: int, m2: int) -> np.ndarray:
        """Dense Λ = H H†, formed on request."""
        return _factor_op(self.factor(receiver, m1, m2))


def _side_info_groups(receiver: int, m1_size: int, m2_size: int) -> dict:
    """Every side-information group of the receiver: its known index -> the
    message pairs that share it, ordered by the resolved index.

    Receiver 1 knows m2 and resolves m1; receiver 2 the reverse.
    """
    if receiver == 1:
        return {m2: [(m1, m2) for m1 in range(m1_size)] for m2 in range(m2_size)}
    return {m1: [(m1, m2) for m2 in range(m2_size)] for m1 in range(m1_size)}


def build_square_root_decoder(detection: DetectionOperators) -> SquareRootDecoder:
    cb = detection.codebook
    groups = {
        receiver: {
            known: _normalize_group([detection.factors[receiver][p] for p in pairs])
            for known, pairs in _side_info_groups(receiver, cb.m1_size, cb.m2_size).items()
        }
        for receiver in (1, 2)
    }
    return SquareRootDecoder(m1_size=cb.m1_size, m2_size=cb.m2_size, groups=groups)


# ---------------------------------------------------------------------------
# Exact error evaluation.
# ---------------------------------------------------------------------------


def _keyed(table: dict) -> dict:
    """An index-keyed table as a JSON object: string keys in index order."""
    return {str(k): v for k, v in sorted(table.items())}


def _clamp_nonnegative(x: float) -> float:
    """x with negative roundoff clamped to 0; values above 1 pass unchanged."""
    return 0.0 if x < 0.0 else float(x)


@dataclass(frozen=True)
class ErrorReport:
    """Exact per-pair errors and decomposition bounds; the side-information
    averages are derived from the error tables."""

    n: int
    m1_size: int
    m2_size: int
    first_kind: dict  # receiver -> {(m1, m2): error}
    collisions: dict  # receiver -> {(m1, m2): summed cross-word detection mass}
    decomposition_bounds: dict  # receiver -> {(m1, m2): 2 * miss + 4 * collision}
    decomposition_ok: bool
    # receiver -> {(m1, m2): its group's outcome row, tr(Λ_k W(word)) per k}; not in as_dict
    outcomes: dict = field(default_factory=dict)

    def _group_averages(self, receiver: int, kept=None) -> dict:
        """The receiver's error averaged over each side-information group, keyed
        by the known index.  With a set of kept pairs, only those enter, and
        groups without one are left out."""
        out = {}
        for known, pairs in _side_info_groups(receiver, self.m1_size, self.m2_size).items():
            errs = [self.first_kind[receiver][p] for p in pairs if kept is None or p in kept]
            if errs:
                out[known] = float(np.mean(errs))
        return out

    @property
    def avg_by_m2(self) -> dict:
        """Receiver-1 error averaged over m1, per m2."""
        return self._group_averages(1)

    @property
    def avg_by_m1(self) -> dict:
        """Receiver-2 error averaged over m2, per m1."""
        return self._group_averages(2)

    @property
    def overall(self) -> dict:
        """receiver -> error averaged over all pairs."""
        return {r: float(np.mean([e for _, e in sorted(self.first_kind[r].items())])) for r in (1, 2)}

    def as_dict(self) -> dict:
        def table(d):
            return {f"{m1},{m2}": v for (m1, m2), v in sorted(d.items())}

        overall = self.overall
        return {
            "n": self.n,
            "m1_size": self.m1_size,
            "m2_size": self.m2_size,
            "first_kind_1": table(self.first_kind[1]),
            "first_kind_2": table(self.first_kind[2]),
            "collision_1": table(self.collisions[1]),
            "collision_2": table(self.collisions[2]),
            "decomposition_bound_1": table(self.decomposition_bounds[1]),
            "decomposition_bound_2": table(self.decomposition_bounds[2]),
            "avg_by_m2": _keyed(self.avg_by_m2),
            "avg_by_m1": _keyed(self.avg_by_m1),
            "overall_1": overall[1],
            "overall_2": overall[2],
            "decomposition_ok": self.decomposition_ok,
        }


def average_errors(codebook: Codebook, bc: BroadcastCQChannel, decoder: SquareRootDecoder) -> ErrorReport:
    """Exact error tables, with the normalization-removal bound (2x miss +
    4x collision mass of the detection operators) checked per pair, all read
    from two tables per group: tr(Λ_k W(word)) and tr(D'_k W(word)).  The
    detection factors D'_k = F_k F_k† are the ones the decoder's groups hold."""
    first, coll, bounds, outcomes = {1: {}, 2: {}}, {1: {}, 2: {}}, {1: {}, 2: {}}, {1: {}, 2: {}}
    ok = True
    for receiver in (1, 2):
        channel = bc.marginal(receiver)
        for known, pairs in _side_info_groups(receiver, codebook.m1_size, codebook.m2_size).items():
            group = decoder.groups[receiver][known]
            states = [_word_factors(channel, codebook.words[p]) for p in pairs]
            decided = _trace_table(map(group.factor, range(len(pairs))), states)
            detected = _trace_table(group.factors, states)
            for index, pair in enumerate(pairs):
                outcomes[receiver][pair] = tuple(decided[index].tolist())
                first[receiver][pair] = err = _clamp_nonnegative(1.0 - decided[index, index])
                row = detected[index].tolist()
                coll[receiver][pair] = mass = sum(_clamp_nonnegative(t) for k, t in enumerate(row) if k != index)
                miss = _clamp_nonnegative(1.0 - row[index])
                bounds[receiver][pair] = 2.0 * miss + 4.0 * mass
                if err > bounds[receiver][pair] + 1e-9:
                    ok = False
    return ErrorReport(
        n=codebook.n,
        m1_size=codebook.m1_size,
        m2_size=codebook.m2_size,
        first_kind=first,
        collisions=coll,
        decomposition_bounds=bounds,
        decomposition_ok=ok,
        outcomes=outcomes,
    )


def _typical_mixture_apply(channel: CQChannel, tset, block: np.ndarray) -> np.ndarray:
    """(sum over typical words w of p(w) W(w_1) (x) ... (x) W(w_n)) @ block.

    p is the unnormalized product weight of tset's distribution.  Partial
    sums are kept per letter-count vector of the positions applied so far,
    so each position costs one mode product per count vector and letter
    instead of one kron_apply per typical word.  Count vectors that can no
    longer end inside the typical windows are dropped on the way.
    """
    dist, n = tset.dist, tset.n
    windows = tset.count_windows()
    d = channel.output_dim
    cols = block.shape[1]
    letters = [
        (i, p * channel.state(a)) for i, (a, p) in enumerate(zip(dist.labels, dist.weights)) if p > 0.0
    ]
    partial = {(0,) * len(dist.labels): block}
    for k in range(n):
        left = n - k - 1
        step = {}
        for counts, blk in partial.items():
            view = blk.reshape(d**k, d, d**left * cols)
            for i, weighted_state in letters:
                grown = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                if grown[i] > windows[i][1] or any(c + left < lo for c, (lo, _) in zip(grown, windows)):
                    continue
                term = np.matmul(weighted_state, view)
                if grown in step:
                    step[grown] += term
                else:
                    step[grown] = term
        partial = step
    out = np.zeros(block.shape, dtype=complex)
    for blk in partial.values():
        out += blk.reshape(block.shape)
    return out


def second_kind_collision_check(
    dist: ProbabilityDistribution,
    bc: BroadcastCQChannel,
    n: int,
    alpha: float,
    preset: str = PRESET_FIXED,
    trials: int = 200,
    seed: int = 0,
    *,
    delta_code: float = 0.5,
    exact: bool = False,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> dict:
    """Collision mass of receiver 2's detection operators on wrong-word states.

    Estimates E[tr(W2(X) D'(X'))] over independent typical words X, X' and
    compares it against the rigorous equipartition-times-rank budget, reported
    both directly and as the exponent offset eps_slack with
    budget = 2^(-n (chi2 - eps_slack)); a zero budget has no such offset and
    reports eps_slack as None.  With exact=True the expectation over
    all pairs of typical words is evaluated exactly, one type class at a time;
    "trials" then reports the number of pairs it covers.
    """
    preset = resolve_preset(preset)
    channel = bc.marginal(2)
    proj = averaged_state_projector(channel, dist, n, alpha, preset, dim_cap)
    tset = TypicalSet(dist, n, delta_code)
    typical_mass = tset.probability()
    if typical_mass <= 0.0:
        raise InvalidInputError("typical set has zero mass; cannot sample words")
    lam_max = spectrum_projector_stats(proj.eigenvalues[0], n, proj.taus[0]).lambda_max
    chi2 = holevo_chi(channel, dist)

    def factor_of(word):
        cond = conditional_typical_projector(channel, word, alpha, preset, dim_cap)
        return cond.sandwiched_factor(proj), cond.rank

    if exact:
        # E[tr(W(X) D'(X'))] = sum_w p(w) tr(F_w† rho_mix F_w) for independent
        # X, X'.  rho_mix and the averaged projector commute with permutations
        # of the positions and D'(pi w) = P_pi D'(w) P_pi†, so the trace only
        # depends on the type of w: one word per type class stands for all.
        total = 0.0
        mean_rank = 0.0
        for counts in tset.count_vectors():
            w = tuple(a for a, k in zip(dist.labels, counts) for _ in range(k))
            p = multinomial_coefficient(n, counts) * math.prod(dist.weight(a) for a in w) / typical_mass
            if p == 0.0:
                continue
            f, rank = factor_of(w)
            mixed = _typical_mixture_apply(channel, tset, f) / typical_mass
            total += p * float(np.vdot(f, mixed).real)
            mean_rank += p * rank
        estimate = _clamp_nonnegative(total)
        trials_used = tset.size() ** 2
    else:
        rng = np.random.default_rng(seed)
        total = 0.0
        mean_rank = 0.0
        for _ in range(trials):
            x = tset.sample(rng, 100_000)
            x_prime = tset.sample(rng, 100_000)
            f, rank = factor_of(x_prime)
            total += _clamp_nonnegative(_factor_trace(f, _word_factors(channel, x)))
            mean_rank += rank
        estimate = total / trials
        mean_rank /= trials
        trials_used = trials

    budget = lam_max * mean_rank / typical_mass
    eps_slack = float(chi2 + math.log2(budget) / n) if budget > 0.0 else None
    return {
        "n": n,
        "alpha": float(alpha),
        "preset": preset,
        "exact": exact,
        "trials": trials_used,
        "estimate": float(estimate),
        "budget": float(budget),
        "within_budget": bool(estimate <= budget + 1e-12),
        "chi2_bits": float(chi2),
        "eps_slack": eps_slack,
        "mean_conditional_rank": float(mean_rank),
        "lambda_max": float(lam_max),
        "typical_mass": float(typical_mass),
    }


# ---------------------------------------------------------------------------
# Expurgation and side-information decoding.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpurgationResult:
    """Kept message subsets with their per-message error records."""

    m1_kept: tuple
    m2_kept: tuple
    delta: float
    selection_error_by_m2: dict  # kept m2 -> average over the full original m1 set
    selection_error_by_m1: dict
    final_error_by_m2: dict  # kept m2 -> average over the kept m1 subset
    final_error_by_m1: dict
    within_two_delta: bool
    within_four_delta: bool

    def as_dict(self) -> dict:
        out = {name: _keyed(v) if isinstance(v, dict) else v for name, v in vars(self).items()}
        return {**out, "m1_kept": list(self.m1_kept), "m2_kept": list(self.m2_kept)}


def _better_half(averages: dict) -> tuple:
    """The sorted ceil(size/2) keys with the smallest averages.  Averages
    within 1e-12 of the cutoff, the ceil(size/2)-th smallest, are tied, and
    ties go to the lower key, so roundoff cannot order equal averages."""
    keep = math.ceil(len(averages) / 2)
    cutoff = sorted(averages.values())[keep - 1]
    below = [k for k, v in averages.items() if v < cutoff - 1e-12]
    tied = sorted(k for k, v in averages.items() if abs(v - cutoff) <= 1e-12)
    return tuple(sorted(below + tied[: keep - len(below)]))


def expurgate(errors: ErrorReport, delta: float) -> ExpurgationResult:
    """Keep the better half of each message set when the global averages allow it.

    Selection keeps the ceil(size/2) indices with the smallest averaged error
    (averages within 1e-12 of the cutoff tie, and ties go to the lower
    index); a global average <= delta pins each selected average at
    <= 2*delta and each restricted average at <= 4*delta.
    """
    if delta <= 0.0:
        raise InvalidInputError(f"delta must be positive, got {delta}")
    overall = errors.overall
    if overall[1] > delta or overall[2] > delta:
        raise ExpurgationError(
            f"average errors ({overall[1]:.4g}, {overall[2]:.4g}) exceed delta={delta}"
        )
    # receiver 1's group averages rank the m2 it knows, receiver 2's the m1
    selection, kept = {}, {}
    for receiver in (1, 2):
        averages = errors._group_averages(receiver)
        kept[receiver] = _better_half(averages)
        selection[receiver] = {known: averages[known] for known in kept[receiver]}
    m1_kept, m2_kept = kept[2], kept[1]
    kept_pairs = {(m1, m2) for m1 in m1_kept for m2 in m2_kept}
    final = {receiver: errors._group_averages(receiver, kept_pairs) for receiver in (1, 2)}
    return ExpurgationResult(
        m1_kept=m1_kept,
        m2_kept=m2_kept,
        delta=float(delta),
        selection_error_by_m2=selection[1],
        selection_error_by_m1=selection[2],
        final_error_by_m2=final[1],
        final_error_by_m1=final[2],
        within_two_delta=all(v <= 2.0 * delta + 1e-12 for s in selection.values() for v in s.values()),
        within_four_delta=all(v <= 4.0 * delta + 1e-12 for f in final.values() for v in f.values()),
    )


def decode_with_side_info(
    decoder: SquareRootDecoder,
    receiver: int,
    known_message: int,
    state,
    mode: str = "argmax",
    rng: np.random.Generator | None = None,
):
    """Apply one side-information decoding group to an output state.

    Receiver 1 knows m2 and resolves m1; receiver 2 the reverse.  The state
    is a dense N x N array or the list of its tensor factors.  Outcome
    probabilities are exact traces, clamped at 0; "argmax" returns the most
    likely message, "sampled" draws from the full outcome distribution and
    returns None on the complement outcome.
    """
    if receiver not in (1, 2):
        raise InvalidInputError(f"receiver must be 1 or 2, got {receiver!r}")
    if mode not in ("argmax", "sampled"):
        raise InvalidInputError(f"unknown decode mode {mode!r}")
    group = decoder.groups[receiver].get(known_message)
    if group is None:
        raise InvalidInputError(f"known message {known_message} outside its set")
    if isinstance(state, np.ndarray) and state.ndim == 2:
        state = [state]
    (probs,) = _trace_table(map(group.factor, range(len(group.factors))), [state])
    return _decide(probs, mode, rng)


def _decide(probs, mode: str = "argmax", rng: np.random.Generator | None = None):
    """decode_with_side_info's decision on one row of outcome probabilities."""
    probs = np.array([_clamp_nonnegative(p) for p in probs])
    if mode == "argmax":
        return int(np.argmax(probs))
    rng = rng if rng is not None else np.random.default_rng(0)
    fail = _clamp_nonnegative(1.0 - float(probs.sum()))
    full = np.append(probs, fail)
    full = full / full.sum()
    outcome = int(rng.choice(len(full), p=full))
    return None if outcome == len(probs) else outcome


def modular_sum_encode(m1: int, m2: int, size: int) -> int:
    """Relay's common message for the sum-forwarding scheme."""
    if size < 1:
        raise InvalidInputError("message set size must be >= 1")
    if not 0 <= m1 < size or not 0 <= m2 < size:
        raise InvalidInputError(f"messages ({m1}, {m2}) outside range(0, {size})")
    return (m1 + m2) % size


def modular_sum_decode(common: int, known: int, size: int) -> int:
    """Recover the partner's message from the common message and one's own."""
    if size < 1:
        raise InvalidInputError("message set size must be >= 1")
    if not 0 <= common < size or not 0 <= known < size:
        raise InvalidInputError(f"values ({common}, {known}) outside range(0, {size})")
    return (common - known) % size


# ---------------------------------------------------------------------------
# End-to-end broadcast-phase simulation.
# ---------------------------------------------------------------------------

_SCHEMES = ("proof-construction", "modular-sum")


def _config_integer(value, key: str) -> int:
    """An integral number (not a bool) as an int."""
    out = _integral(value)
    if out is None:
        raise InvalidInputError(f"config {key!r} must be an integer, got {value!r}")
    return out


def _config_real(value, key: str) -> float:
    """A finite number (not a bool) as a float."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise InvalidInputError(f"config {key!r} must be a finite number, got {value!r}")


def _config_reals(value, key: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"config {key!r} must be a list of numbers, got {value!r}")
    return tuple(_config_real(x, key) for x in value)


def _config_string(value, key: str) -> str:
    if not isinstance(value, str):
        raise InvalidInputError(f"config {key!r} must be a string, got {value!r}")
    return value


# config key -> (SimConfig field, check); a field whose default is None may stay None
_CONFIG_KEYS = {
    "n": ("n", _config_integer),
    "alpha": ("alpha", _config_real),
    "preset": ("preset", _config_string),
    "delta_code": ("delta_code", _config_real),
    "epsilon": ("epsilon", _config_real),
    "M1": ("m1_size", _config_integer),
    "M2": ("m2_size", _config_integer),
    "seed": ("seed", _config_integer),
    "scheme": ("scheme", _config_string),
    "max_seed_attempts": ("max_seed_attempts", _config_integer),
    "delta": ("delta", _config_real),
    "dist": ("dist", _config_reals),
    "dim_cap": ("dim_cap", _config_integer),
}


@dataclass
class SimConfig:
    """Configuration of one broadcast-phase run."""

    n: int
    alpha: float = 1.0
    preset: str = PRESET_FIXED
    delta_code: float = 0.5
    epsilon: float | None = None
    m1_size: int | None = None
    m2_size: int | None = None
    seed: int = 0
    scheme: str = "proof-construction"
    max_seed_attempts: int = 8
    delta: float = 0.25
    dist: tuple | None = None
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        for key, (field, check) in _CONFIG_KEYS.items():
            value = getattr(self, field)
            if value is not None or self.__dataclass_fields__[field].default is not None:
                setattr(self, field, check(value, key))
        if self.n < 1:
            raise InvalidInputError(f"block length must be >= 1, got {self.n}")
        if self.seed < 0:
            raise InvalidInputError(f"config 'seed' must be >= 0, got {self.seed}")
        self.preset = resolve_preset(self.preset)
        if self.scheme not in _SCHEMES:
            raise InvalidInputError(f"unknown scheme {self.scheme!r}; pick from {_SCHEMES}")
        if self.max_seed_attempts < 1:
            raise InvalidInputError("max_seed_attempts must be >= 1")
        if self.delta <= 0.0:
            raise InvalidInputError("delta must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        if not isinstance(raw, dict):
            raise InvalidInputError("simulation config must be a JSON object")
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        if "n" not in raw:
            raise InvalidInputError("config requires 'n'")
        return cls(**{_CONFIG_KEYS[k][0]: v for k, v in raw.items()})


def _input_distribution(bc: BroadcastCQChannel, config: SimConfig) -> ProbabilityDistribution:
    if config.dist is None:
        return ProbabilityDistribution.uniform(bc.alphabet)
    if len(config.dist) != len(bc.alphabet):
        raise InvalidInputError("config dist length does not match the channel alphabet")
    return ProbabilityDistribution(bc.alphabet, np.asarray(config.dist))


def _default_epsilon(n: int, chis) -> float:
    """The epsilon at which the weakest receiver's message set has size 2."""
    return min((n * chi - 1.0) / (2.0 * n) for chi in chis)


def _too_many_messages(what: str, size, dim: int) -> InvalidInputError:
    """The refusal of a message set larger than its receiver's detection
    dimension d_r^n: a group of operators on that space distinguishes at
    most d_r^n messages."""
    return InvalidInputError(
        f"{what} of {size} messages exceeds its {dim}-dimensional detection space, "
        f"which distinguishes at most {dim}"
    )


def _message_size(n: int, chi: float, eps: float, dim: int, what: str) -> int:
    """floor(2^(n (chi - 2 eps))), refused above the detection dimension dim.

    An exponent within 1e-9 of an integer counts as that integer, so that
    roundoff in the default epsilon cannot take a message set below the
    size 2 it was chosen for.  The bound is checked on the exponent, so a
    size beyond float range is never formed.
    """
    exponent = n * (chi - 2.0 * eps)
    if math.isfinite(exponent) and abs(exponent - round(exponent)) <= 1e-9:
        exponent = round(exponent)
    if exponent >= math.log2(dim + 1):
        raise _too_many_messages(what, f"2^{exponent:.6g}", dim)
    return int(math.floor(2.0**exponent))


def _sized_message_sets(config: SimConfig, chi1: float, chi2: float, dims, notices: list):
    """Explicit sizes win; otherwise size from 2^(n (chi - 2 eps)).  Either
    way, each set fits its receiver's detection dimension."""
    if config.m1_size is not None or config.m2_size is not None:
        if config.m1_size is None or config.m2_size is None:
            raise InvalidInputError("give both message sizes or neither")
        for what, size, dim in zip(("message set M1", "message set M2"), (config.m1_size, config.m2_size), dims):
            if size > dim:
                raise _too_many_messages(what, size, dim)
        return config.m1_size, config.m2_size
    sizes = _epsilon_sizes(config, [("message set M1", chi1, dims[0]), ("message set M2", chi2, dims[1])], notices)
    return (0, 0) if sizes is None else tuple(sizes)


def _epsilon_sizes(config: SimConfig, sets, notices: list):
    """_message_size of each (what, chi, dim) message set at config.epsilon.

    A missing epsilon defaults to the one at which the weakest set has size
    2; None when that default is <= 0, so the weakest set cannot reach 2.
    """
    eps = config.epsilon
    if eps is None:
        eps = _default_epsilon(config.n, [chi for _, chi, _ in sets])
        if eps <= 0.0:
            return None
        notices.append(f"epsilon defaulted to {eps:.6g} so both message sets reach size 2")
    return [_message_size(config.n, chi, eps, dim, what) for what, chi, dim in sets]


def _detection_dims(bc: BroadcastCQChannel, config: SimConfig) -> tuple[int, int]:
    """Each receiver's detection dimension d_r^n, checked against the cap
    before anything is sized or sampled."""
    dims = []
    for receiver in (1, 2):
        d = bc.marginal(receiver).output_dim
        _require_within_cap(d, config.n, config.dim_cap, "detection space")
        dims.append(d**config.n)
    return dims[0], dims[1]


def end_to_end_broadcast_sim(bc: BroadcastCQChannel, config: SimConfig | dict) -> dict:
    """Sample, detect, normalize, expurgate, and decode; returns a JSON-ready report."""
    if isinstance(config, dict):
        config = SimConfig.from_dict(config)
    dist = _input_distribution(bc, config)
    dims = _detection_dims(bc, config)
    chi1 = holevo_chi(bc.marginal(1), dist)
    chi2 = holevo_chi(bc.marginal(2), dist)
    notices: list[str] = []
    report = {
        "scheme": config.scheme,
        "n": config.n,
        "alpha": config.alpha,
        "preset": config.preset,
        "delta_code": config.delta_code,
        "delta": config.delta,
        "chi1_bits": chi1,
        "chi2_bits": chi2,
        "input_weights": [float(w) for w in dist.weights],
        "notices": notices,
    }
    if config.scheme == "modular-sum":
        return _modular_sum_sim(bc, config, dist, chi1, chi2, dims, report)
    return _proof_construction_sim(bc, config, dist, chi1, chi2, dims, report)


def _decode_report(pairs, recovered) -> dict:
    """The decode section: per message pair (m1, m2), whether receiver r
    recovers its partner's message, recovered(r, m1, m2)."""
    table = {f"{m1},{m2}": {f"receiver{r}": recovered(r, m1, m2) for r in (1, 2)} for m1, m2 in pairs}
    return {"all_correct": all(ok for row in table.values() for ok in row.values()), "table": table}


def _first_passing_seed(config: SimConfig, realize, report: dict):
    """Realize codes for seeds config.seed, config.seed + 1, ... in turn.

    realize(seed) returns (worst average error, realization).  Returns the
    first seed whose worst average error is <= config.delta with its
    realization, or (None, last realization) after marking the report
    threshold-not-met.
    """
    for attempt in range(config.max_seed_attempts):
        seed = config.seed + attempt
        worst, realization = realize(seed)
        if worst <= config.delta:
            report["attempts_used"] = attempt + 1
            return seed, realization
    report.update(
        attempts_used=config.max_seed_attempts,
        status="threshold-not-met",
        reason=f"no realization reached average error <= {config.delta} "
        f"within {config.max_seed_attempts} seeds",
        seed_last=seed,
    )
    return None, realization


def _proof_construction_sim(bc, config, dist, chi1, chi2, dims, report):
    m1_size, m2_size = _sized_message_sets(config, chi1, chi2, dims, report["notices"])
    if m1_size < 2 or m2_size < 2:
        report.update(status="infeasible", reason=f"message sizes ({m1_size}, {m2_size}) below 2 at n={config.n}")
        return report
    report["sizes"] = {"sampled_m1": m1_size, "sampled_m2": m2_size}
    projectors = _averaged_projectors(bc, dist, config.n, config.alpha, config.preset, config.dim_cap)

    def realize(seed):
        cb = sample_codebook(dist, config.n, m1_size, m2_size, config.delta_code, seed)
        detection = build_detection_operators(cb, bc, config.alpha, config.preset, config.dim_cap, projectors)
        decoder = build_square_root_decoder(detection)
        errs = average_errors(cb, bc, decoder)
        return max(errs.overall.values()), (decoder, errs)

    seed_used, (decoder, errs) = _first_passing_seed(config, realize, report)
    if seed_used is None:
        report["errors"] = errs.as_dict()
        return report
    exp = expurgate(errs, config.delta)
    # each kept pair's word, decoded from the outcome rows of the error pass
    decode = _decode_report(
        itertools.product(exp.m1_kept, exp.m2_kept),
        lambda r, m1, m2: _decide(errs.outcomes[r][(m1, m2)]) == (m1, m2)[r - 1],
    )
    final1, final2 = len(exp.m1_kept), len(exp.m2_kept)
    report.update(
        status="ok",
        seed_used=seed_used,
        sizes={"sampled_m1": m1_size, "sampled_m2": m2_size, "final_m1": final1, "final_m2": final2},
        rates={
            "sampled": [math.log2(m1_size) / config.n, math.log2(m2_size) / config.n],
            "final": [math.log2(final1) / config.n, math.log2(final2) / config.n],
        },
        errors=errs.as_dict(),
        expurgation=exp.as_dict(),
        subpovm_margins={f"receiver{r}": _keyed(m) for r, m in decoder.subpovm_margins.items()},
        decode=decode,
    )
    return report


def _modular_sum_sim(bc, config, dist, chi1, chi2, dims, report):
    given = {s for s in (config.m1_size, config.m2_size) if s is not None}
    if len(given) > 1:
        raise InvalidInputError("the sum-forwarding scheme uses one common message size")
    if given:
        (size,) = given
    else:
        sizes = _epsilon_sizes(config, [("common message set", min(chi1, chi2), min(dims))], report["notices"])
        if sizes is None:
            report.update(status="infeasible", reason="weaker channel cannot fit 2 messages")
            return report
        (size,) = sizes
    if size > min(dims):
        raise _too_many_messages("common message set", size, min(dims))
    if size < 2:
        report.update(status="infeasible", reason=f"common message size {size} below 2")
        return report
    report["weaker_receiver"] = 1 if chi1 < chi2 else 2
    if chi1 < chi2:
        report["notices"].append("receiver 1 is the weaker marginal; roles swapped relative to the usual order")
    report["sizes"] = {"common": size}
    projectors = _averaged_projectors(bc, dist, config.n, config.alpha, config.preset, config.dim_cap)

    def realize(seed):
        cb = sample_codebook(dist, config.n, size, 1, config.delta_code, seed)
        words = [cb.word(m, 0) for m in range(size)]
        probs, errors, margins = {}, {}, {}
        for receiver in (1, 2):
            channel = bc.marginal(receiver)
            factor_by_word, _ = _sandwiched_detection(
                channel, projectors[receiver], words, config.alpha, config.preset, config.dim_cap
            )
            povm = _normalize_group([factor_by_word[w] for w in words])
            margins[receiver] = povm.margin
            # probs[c, k]: the probability of outcome k on word c's state
            states = [_word_factors(channel, w) for w in words]
            probs[receiver] = _trace_table(map(povm.factor, range(size)), states)
            errors[receiver] = [_clamp_nonnegative(1.0 - probs[receiver][c, c]) for c in range(size)]
        worst = max(float(np.mean(errors[1])), float(np.mean(errors[2])))
        return worst, (probs, errors, margins)

    seed_used, (probs, errors, margins) = _first_passing_seed(config, realize, report)
    if seed_used is None:
        report["common_errors"] = {"receiver1": errors[1], "receiver2": errors[2]}
        return report

    def recovered(r, m1, m2):
        # receiver r decodes the common message and subtracts its own
        got = _decide(probs[r][modular_sum_encode(m1, m2, size)])
        return modular_sum_decode(got, (m2, m1)[r - 1], size) == (m1, m2)[r - 1]

    rate = math.log2(size) / config.n
    report.update(
        status="ok",
        seed_used=seed_used,
        rates={"sampled": [rate, rate], "final": [rate, rate]},
        common_errors={
            "receiver1": errors[1],
            "receiver2": errors[2],
            "avg_receiver1": float(np.mean(errors[1])),
            "avg_receiver2": float(np.mean(errors[2])),
        },
        subpovm_margins={"receiver1": margins[1], "receiver2": margins[2]},
        decode=_decode_report(itertools.product(range(size), repeat=2), recovered),
    )
    return report
