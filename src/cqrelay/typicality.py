"""Frequency-typical sets, typical subspace projectors, and quantitative bounds.

Typicality is frequency-based throughout: a word is typical when every letter
(or eigen-index) count sits within a threshold of its mean.  Two threshold
presets are supported for projectors: "fixed" uses the raw parameter alpha as
the per-index threshold, "sqrt" scales it as alpha/sqrt(block length).

Scalar projector functionals (captured trace, rank, largest compressed
eigenvalue) are evaluated exactly by summing over letter-count classes, which
works far beyond the dimension cap that limits dense realizations.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from collections import Counter

import numpy as np

from .channels import CQChannel, _letter_sum, _require_matching_alphabet, output_state
from .errors import InvalidInputError, ResourceLimitError
from .operators import (
    DEFAULT_DIM_CAP,
    _checked_spectrum,
    _kept_row_sums,
    _require_within_cap,
    ZERO_EIGENVALUE_TOL,
    ProbabilityDistribution,
    compositions,
    hermitian_eigendecomposition,
    hermitian_part,
    kron_column_chunks,
    product_columns,
    spectrum_entropy_bits,
    tensor_all,
)

PRESET_FIXED = "fixed"
PRESET_SQRT = "sqrt"
_PRESET_ALIASES = {"fixed": PRESET_FIXED, "sqrt": PRESET_SQRT, "sqrt-scaled": PRESET_SQRT}


def resolve_preset(preset: str) -> str:
    try:
        return _PRESET_ALIASES[preset]
    except KeyError:
        raise InvalidInputError(f"unknown threshold preset {preset!r}") from None


def threshold_for(alpha: float, length: int, preset: str) -> float:
    """Per-index frequency threshold for a block of the given length.

    alpha must be a positive finite number whose bounds stay representable:
    tau^2 may not underflow to 0 and (length * alpha)^2 may not overflow.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidInputError(f"threshold parameter must be positive and finite, got {alpha}")
    if length < 1:
        raise InvalidInputError(f"block length must be >= 1, got {length}")
    tau = float(alpha) if resolve_preset(preset) == PRESET_FIXED else float(alpha) / math.sqrt(length)
    scaled = length * float(alpha)
    if tau * tau == 0.0 or not math.isfinite(scaled * scaled):
        raise InvalidInputError(
            f"threshold parameter {alpha!r} is out of range at block length {length}: "
            "its square underflows or overflows"
        )
    return tau


class TypicalSet:
    """Words whose letter frequencies all sit within delta/|alphabet| of the mean.

    The set is held as its (|alphabet|, n + 1) admissibility mask: entry
    [i, k] says whether k copies of letter i are allowed.  A zero-weight
    letter is not forced to count 0; only the frequency window applies.
    """

    def __init__(self, dist: ProbabilityDistribution, n: int, delta: float):
        if n < 1:
            raise InvalidInputError(f"word length must be >= 1, got {n}")
        if not (math.isfinite(delta) and delta > 0.0):
            raise InvalidInputError(f"delta must be positive and finite, got {delta}")
        d = len(dist.labels)
        _require_table_bytes(d * (n + 1), f"typical-set mask for n={n}, d={d}")
        self.dist = dist
        self.n = int(n)
        self.delta = float(delta)
        self.threshold = self.delta / d
        self._allowed = _count_allowed(dist.weights, self.n, self.threshold)

    def counts(self, word) -> tuple[int, ...]:
        word = tuple(word)
        if len(word) != self.n:
            raise InvalidInputError(f"word length {len(word)}, expected {self.n}")
        counter = Counter(word)
        unknown = set(counter) - set(self.dist.labels)
        if unknown:
            raise InvalidInputError(f"word contains letters outside the alphabet: {sorted(map(repr, unknown))}")
        return tuple(counter.get(a, 0) for a in self.dist.labels)

    def __contains__(self, word) -> bool:
        return all(self._allowed[i, k] for i, k in enumerate(self.counts(word)))

    def count_windows(self) -> list[tuple[int, int]]:
        """Per letter, the interval [lo, hi] of allowed counts.

        An empty window is (g + 1, g), with g the number of counts k whose
        k/n lies under the window's upper edge, so lo > hi.
        """
        windows = []
        for w, row in zip(self.dist.weights, self._allowed):
            allowed = np.flatnonzero(row)
            if len(allowed):
                windows.append((int(allowed[0]), int(allowed[-1])))
            else:
                under = int(np.count_nonzero(np.arange(self.n + 1) / self.n <= w + self.threshold))
                windows.append((under + 1, under))
        return windows

    def is_empty(self) -> bool:
        # windows are intervals, so every total between the sums is reachable
        lo, hi = np.array(self.count_windows()).T
        return not ((lo <= hi).all() and lo.sum() <= self.n <= hi.sum())

    def _member_classes(self):
        """The count-class table of (n, |alphabet|) and its member-row flags."""
        table = _count_table(self.n, len(self.dist.labels))
        return table, _rows_allowed(self._allowed, table.counts)

    def count_vectors(self) -> list[tuple[int, ...]]:
        table, keep = self._member_classes()
        return [tuple(row) for row in table.counts[keep].tolist()]

    def size(self) -> int:
        """Exact number of member words."""
        table, keep = self._member_classes()
        return int(table.multinomials[keep].sum())

    def probability(self) -> float:
        """Exact product-distribution mass of the set, summed in table order."""
        table, keep = self._member_classes()
        products = _class_products(_power_table(self.dist.weights, self.n), table.counts[keep])
        return sum((table.weights[keep] * products).tolist())

    def sample(self, rng, max_tries: int) -> tuple:
        """Draw i.i.d. words from the distribution until one is a member.

        Each try makes the draws of rng.choice(d, size=n, p=weights).
        """
        cdf = np.cumsum(self.dist.weights)
        cdf /= cdf[-1]
        labels = self.dist.labels
        for _ in range(max_tries):
            word = tuple(labels[i] for i in cdf.searchsorted(rng.random(self.n), side="right").tolist())
            if word in self:
                return word
        raise ResourceLimitError(
            f"rejection sampling failed to hit the typical set within {max_tries} tries"
        )


def _clean_eigenvalues(values: np.ndarray) -> np.ndarray:
    w = np.asarray(values, dtype=float).copy()
    w[w <= ZERO_EIGENVALUE_TOL] = 0.0
    return w


def _index_words(d: int, n: int) -> np.ndarray:
    """All d^n index words as the rows of a (d^n, n) array, in product-basis order."""
    return np.indices((d,) * n).reshape(n, -1).T


def _word_allowed(words: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Row flags: every index count of the word is allowed (allowed[i, k])."""
    counts = (words[:, :, None] == np.arange(allowed.shape[0])).sum(axis=1)
    return _rows_allowed(allowed, counts)


@dataclass(frozen=True, eq=False)
class TypicalProjector:
    """Projector onto jointly typical eigen-index sequences given an input word.

    For each letter class the eigen-index sub-word must be typical for that
    letter's output spectrum, with the class size as the effective block
    length.  The projector of an n-fold product state is the case of a
    constant word (letter 0).  mask flags the included index words over all
    d^n product-basis positions.
    """

    word: tuple
    eigenvalues: dict  # letter -> descending spectrum
    bases: dict  # letter -> eigenvector columns
    taus: dict  # letter -> per-class threshold
    alpha: float
    preset: str
    mask: np.ndarray  # (d^n,) bool, product-basis order

    @property
    def dim(self) -> int:
        return int(self.bases[self.word[0]].shape[0])

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.mask))

    def index_words(self) -> np.ndarray:
        """Included index words in product-basis (lexicographic) order, as an (R, n) array."""
        return _index_words(self.dim, self.n)[self.mask]

    def factors(self) -> list:
        """The eigenbasis at each position of the word."""
        return [self.bases[a] for a in self.word]

    def included_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the projector's range."""
        return product_columns(self.factors(), self.index_words())

    def matrix(self) -> np.ndarray:
        """Dense realization in the computational product basis: (U mask) U†
        for the product eigenbasis U."""
        big = tensor_all(self.factors())
        return hermitian_part((big * self.mask) @ big.conj().T)

    def sandwiched_factor(self, outer: TypicalProjector) -> np.ndarray:
        """Pi V for Pi = outer.matrix() and V = self.included_vectors(), never
        forming Pi.

        Pi is diagonal in the outer product eigenbasis U = U_1 (x) ... (x) U_n,
        so Pi V = U (mask * U† V), and U† V is itself the product columns of
        the rotated bases U_k† B_k.  U is applied one column chunk at a time,
        each chunk written back into the columns it came from, so no
        temporary grows with the rank.
        """
        if (outer.dim, outer.n) != (self.dim, self.n):
            raise InvalidInputError(
                f"outer projector on {outer.dim}^{outer.n} does not match {self.dim}^{self.n}"
            )
        pairs = list(zip(outer.word, self.word))
        rotated = {(b, a): outer.bases[b].conj().T @ self.bases[a] for b, a in set(pairs)}
        cols = product_columns([rotated[pair] for pair in pairs], self.index_words())
        cols[~outer.mask] = 0.0
        for chunk, product in kron_column_chunks(outer.factors(), cols):
            cols[:, chunk] = product
        return cols


# perfbench/layers.py traces the projector methods under both class names;
# the alias can go once those METHODS entries are folded into one.
ConditionalTypicalProjector = TypicalProjector


def _projector(decompositions: dict, word: tuple, alpha: float, preset: str) -> TypicalProjector:
    """Typical projector of the product state of the word's letters.

    decompositions maps each letter of the word to its state's descending
    spectrum and eigenvector columns.  Each caller checks d^n against its
    dimension cap before it forms anything of size n, typical_projector's
    constant word included.
    """
    n = len(word)
    d = len(next(iter(decompositions.values()))[0])
    preset = resolve_preset(preset)
    words = _index_words(d, n)
    mask = np.ones(len(words), dtype=bool)
    eigs, bases, taus = {}, {}, {}
    for a, na in Counter(word).items():
        w, u = decompositions[a]
        w = _clean_eigenvalues(w)
        tau_a = threshold_for(alpha, na, preset)
        eigs[a], bases[a], taus[a] = w, u, tau_a
        positions = [k for k, b in enumerate(word) if b == a]
        mask &= _word_allowed(words[:, positions], _eigen_allowed(w, na, tau_a))
    return TypicalProjector(
        word=word, eigenvalues=eigs, bases=bases, taus=taus, alpha=float(alpha), preset=preset, mask=mask
    )


def typical_projector(
    rho,
    n: int,
    alpha: float,
    preset: str = PRESET_FIXED,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TypicalProjector:
    """Typical projector of the n-fold product of a state: the constant word of letter 0."""
    if np.ndim(rho) != 2:
        raise InvalidInputError(f"state must be one d x d matrix, got shape {np.shape(rho)}")
    # validated from the one eigh whose decomposition the projector reads
    op = _checked_spectrum(rho, "state", density=True, vectors=True)
    if n < 1:
        raise InvalidInputError(f"block length must be >= 1, got {n}")
    _require_within_cap(op.matrix.shape[0], n, dim_cap, "projector")
    return _projector({0: (op.spectrum[::-1], op.vectors[:, ::-1].copy())}, (0,) * n, alpha, preset)


def conditional_typical_projector(
    channel: CQChannel,
    word,
    alpha: float,
    preset: str = PRESET_FIXED,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TypicalProjector:
    """Typical projector of the product state selected by an input word."""
    word = tuple(word)
    if not word:
        raise InvalidInputError("conditioning word is empty")
    _require_within_cap(channel.output_dim, len(word), dim_cap, "projector")
    return _projector(
        {a: hermitian_eigendecomposition(channel.state(a)) for a in dict.fromkeys(word)}, word, alpha, preset
    )


def _averaged_state_alpha(alpha: float, a_size: int) -> float:
    """Threshold parameter of the averaged-state projector: alpha*sqrt(|alphabet|)."""
    return alpha * math.sqrt(a_size)


def averaged_state_projector(
    channel: CQChannel,
    dist: ProbabilityDistribution,
    n: int,
    alpha: float,
    preset: str = PRESET_FIXED,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TypicalProjector:
    """Typical projector of the n-fold averaged output state, at threshold
    parameter alpha*sqrt(|alphabet|)."""
    return typical_projector(
        output_state(channel, dist), n, _averaged_state_alpha(alpha, len(channel.alphabet)), preset, dim_cap
    )


# ---------------------------------------------------------------------------
# Exact scalar evaluation over letter-count classes.
# ---------------------------------------------------------------------------

# A count-class table, or an outer sum of class tables, whose estimated size
# passes this many bytes raises ResourceLimitError before it is built.  The
# limit bounds each table; up to 16 tables stay cached (_count_table).
# Stacks of spectra and instances are scored in chunks that keep their
# working arrays near the limit.
COUNT_TABLE_BYTE_LIMIT = 32 * 2**20


@dataclass(frozen=True, eq=False)
class _CountTable:
    """Every letter-count vector of n over d letters, in lexicographic order."""

    counts: np.ndarray  # (R, d) count vectors
    multinomials: np.ndarray  # (R,) exact: int64, or Python ints beyond int64
    weights: np.ndarray  # (R,) the multinomials as floats
    binomials: np.ndarray  # binomials[a, p] = C(a, p) for a < n + d, p < d (capped)


def _require_table_bytes(nbytes: int, what: str) -> None:
    if nbytes > COUNT_TABLE_BYTE_LIMIT:
        raise ResourceLimitError(
            f"{what} needs about {nbytes} bytes, above the {COUNT_TABLE_BYTE_LIMIT}-byte limit"
        )


def _fits_int64(n: int, d: int) -> bool:
    # every multinomial and every sum of them is at most d^n
    return n * math.log2(d) < 63


def _table_rows(n: int, d: int) -> int:
    return math.comb(n + d - 1, d - 1)


def _count_table_bytes(n: int, d: int) -> int:
    rows = _table_rows(n, d)
    exact = 8 if _fits_int64(n, d) else 40 + math.ceil(n * math.log2(d) / 8)
    return rows * (8 * d + 8 + exact)


_comb = np.frompyfunc(math.comb, 2, 1)


@functools.lru_cache(maxsize=16)
def _count_table(n: int, d: int) -> _CountTable:
    """The (n, d) count-class table, built once; its size is checked first.

    The cache holds at most 16 tables, so at most 16 times the byte limit.
    """
    _require_table_bytes(_count_table_bytes(n, d), f"count-class table for n={n}, d={d}")
    counts = compositions(n, d)
    # multinomial = prod_i C(n - c_0 - ... - c_(i-1), c_i)
    remaining = n - np.cumsum(counts, axis=1) + counts
    mult = np.ones(len(counts), dtype=object)
    for i in range(d - 1):
        mult = mult * _comb(remaining[:, i], counts[:, i])
    try:
        weights = mult.astype(float)
    except OverflowError:
        raise ResourceLimitError(
            f"count classes for n={n}, d={d} have multinomials beyond the float range"
        ) from None
    if _fits_int64(n, d):
        mult = mult.astype(np.int64)
    # table ranks are below the row count, so these binomials fit int64
    binomials = np.array(
        [[min(math.comb(a, p), 2**63 - 1) for p in range(d)] for a in range(n + d)],
        dtype=np.int64,
    )
    for arr in (counts, mult, weights, binomials):
        arr.setflags(write=False)
    return _CountTable(counts=counts, multinomials=mult, weights=weights, binomials=binomials)


def _power_table(values: np.ndarray, n: int) -> np.ndarray:
    """values[..., i] ** k for k = 0..n, shape (..., n + 1).

    Each power is the scalar w**k of numpy's float64 scalar, as a per-class
    loop takes it; the vectorized power ufunc may round differently.
    """
    flat = np.asarray(values, dtype=float).ravel()
    table = np.array([[w**k for k in range(n + 1)] for w in flat]).reshape(flat.size, n + 1)
    return table.reshape(np.shape(values) + (n + 1,))


def _class_products(powers: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """prod_i w_i^(c_i) over a table's count rows, multiplied left to right."""
    out = powers[..., 0, counts[:, 0]]
    for i in range(1, counts.shape[1]):
        out = out * powers[..., i, counts[:, i]]
    return out


def _count_allowed(weights, n: int, tau) -> np.ndarray:
    """allowed[..., i, k]: |k/n - weights[..., i]| <= tau, for k = 0..n.

    The one window predicate: typical sets, projectors and count tables all
    look their counts up in it.  tau is a scalar or one value per row of a
    stack of weight vectors.
    """
    k = np.arange(n + 1)
    return np.abs(k / n - np.asarray(weights, dtype=float)[..., None]) <= np.asarray(tau, dtype=float)[..., None, None]


def _eigen_allowed(eigenvalues: np.ndarray, n: int, tau) -> np.ndarray:
    """_count_allowed for a projector: a zero eigenvalue admits only k = 0."""
    return np.where(eigenvalues[..., None] == 0.0, np.arange(n + 1) == 0, _count_allowed(eigenvalues, n, tau))


def _rows_allowed(allowed: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """flags[..., r]: every count of counts[r] is allowed (allowed[..., i, k])."""
    mask = allowed[..., 0, counts[:, 0]]
    for i in range(1, counts.shape[1]):
        mask = mask & allowed[..., i, counts[:, i]]
    return mask


def _score_spectra(w: np.ndarray, n: int, tau: np.ndarray):
    """Captures, exact ranks and largest products of an (S, d) stack of spectra."""
    table = _count_table(n, w.shape[-1])
    # each spectrum holds a few rows of table length at once: take the
    # spectra in chunks
    chunk = max(1, COUNT_TABLE_BYTE_LIMIT // (32 * len(table.counts)))
    if len(w) > chunk:
        parts = [_score_spectra(w[i : i + chunk], n, tau[i : i + chunk]) for i in range(0, len(w), chunk)]
        return (
            np.concatenate([capture for capture, _, _ in parts]),
            [rank for _, ranks, _ in parts for rank in ranks],
            np.concatenate([lam_max for _, _, lam_max in parts]),
        )
    mask = _rows_allowed(_eigen_allowed(w, n, tau), table.counts)
    p = _class_products(_power_table(w, n), table.counts)
    # a sequential running sum adds the admissible classes in table order
    capture = np.cumsum(np.where(mask, table.weights * p, 0.0), axis=-1)[:, -1]
    ranks = np.where(mask, table.multinomials, 0).sum(axis=-1)
    lam_max = np.where(mask, p, 0.0).max(axis=-1, initial=0.0)
    return capture, [int(r) for r in ranks], lam_max


@dataclass(frozen=True)
class SpectrumProjectorStats:
    """Exact projector functionals for an i.i.d. spectrum block.

    For a stack of spectra, capture, rank and lambda_max are arrays with one
    entry per spectrum (rank holds exact Python ints).
    """

    eigenvalues: np.ndarray
    n: int
    tau: float
    capture: float  # tr(rho^(x) n * projector)
    rank: int  # tr(projector)
    lambda_max: float  # largest eigenvalue of the compressed state


def spectrum_projector_stats(eigenvalues, n, tau) -> SpectrumProjectorStats:
    """Exact stats of one spectrum, or of an (S, d) stack of spectra.

    For a stack, n and tau may be scalars or one value per spectrum.  Each
    spectrum is scored against the cached count-class table of its (n, d):
    the capture adds the admissible classes in table order, so it matches a
    class-by-class loop bit for bit.
    """
    w = _clean_eigenvalues(np.asarray(eigenvalues, dtype=float))
    flat = w.reshape(-1, w.shape[-1])
    lengths = np.broadcast_to(np.asarray(n), (len(flat),))
    taus = np.broadcast_to(np.asarray(tau, dtype=float), (len(flat),))
    capture = np.zeros(len(flat))
    lam_max = np.zeros(len(flat))
    ranks = np.zeros(len(flat), dtype=object)
    for length in sorted(set(lengths.tolist())):
        rows = lengths == length
        capture[rows], ranks_rows, lam_max[rows] = _score_spectra(flat[rows], length, taus[rows])
        ranks[rows] = ranks_rows
    if w.ndim == 1:
        capture, ranks, lam_max = float(capture[0]), int(ranks[0]), float(lam_max[0])
    else:
        capture, ranks, lam_max = (a.reshape(w.shape[:-1]) for a in (capture, ranks, lam_max))
    return SpectrumProjectorStats(
        eigenvalues=w, n=n, tau=tau, capture=capture, rank=ranks, lambda_max=lam_max
    )


def state_projector_stats(
    rho, n: int, alpha: float, preset: str = PRESET_FIXED
) -> SpectrumProjectorStats:
    # validated from the eigh whose spectrum the stats read
    op = _checked_spectrum(rho, "state", density=True, vectors=True)
    tau = threshold_for(alpha, n, resolve_preset(preset))
    return spectrum_projector_stats(op.spectrum[..., ::-1], n, tau)


@dataclass(frozen=True)
class ConditionalProjectorStats:
    """Per-class and aggregate functionals of a conditional typical projector."""

    word: tuple
    class_sizes: dict
    class_stats: dict  # letter -> SpectrumProjectorStats
    capture: float
    rank: int
    lambda_max: float


@dataclass(frozen=True, eq=False)
class _WordBatch:
    """Words paired with their instances' letter states.

    states[s, j] is the state of letter labels[j] in instance s;
    classes[s] lists (letter index, class size) in order of first appearance.
    """

    words: list
    states: np.ndarray  # (S, |A|, d, d)
    classes: list
    labels: tuple


def _letter_states(channel: CQChannel, labels) -> np.ndarray:
    """A channel's letter states in label order, as a one-instance (1, |A|, d, d) stack."""
    return np.array([[channel.state(a) for a in labels]], dtype=complex)


def _word_batch(states, words, labels, empty_message: str) -> _WordBatch:
    words = [tuple(word) for word in words]
    states = np.asarray(states, dtype=complex)
    if states.ndim != 4 or states.shape[:2] != (len(words), len(labels)) or states.shape[2] != states.shape[3]:
        raise InvalidInputError(
            f"letter states must form an ({len(words)}, {len(labels)}, d, d) stack, got shape {states.shape}"
        )
    position = {a: j for j, a in enumerate(labels)}
    classes = []
    for word in words:
        if not word:
            raise InvalidInputError(empty_message)
        for a in word:
            if a not in position:
                raise InvalidInputError(f"input {a!r} not in channel alphabet")
        classes.append([(position[a], na) for a, na in Counter(word).items()])
    return _WordBatch(words=words, states=states, classes=classes, labels=tuple(labels))


def _class_stats(batch: _WordBatch, alpha: float, preset: str) -> list[ConditionalProjectorStats]:
    """Conditional projector stats of every word, all classes scored in one stack."""
    pairs = [(s, j, na) for s, cls in enumerate(batch.classes) for j, na in cls]
    w, _ = hermitian_eigendecomposition(np.array([batch.states[s, j] for s, j, _ in pairs]))
    sizes = [na for _, _, na in pairs]
    taus = [threshold_for(alpha, na, preset) for na in sizes]
    stats = spectrum_projector_stats(w, np.array(sizes), np.array(taus))
    out = []
    row = 0
    for word, cls in zip(batch.words, batch.classes):
        capture, rank, lam_max = 1.0, 1, 1.0
        class_stats = {}
        for j, na in cls:
            one = SpectrumProjectorStats(
                eigenvalues=stats.eigenvalues[row],
                n=na,
                tau=taus[row],
                capture=float(stats.capture[row]),
                rank=int(stats.rank[row]),
                lambda_max=float(stats.lambda_max[row]),
            )
            class_stats[batch.labels[j]] = one
            capture *= one.capture
            rank *= one.rank
            lam_max *= one.lambda_max
            row += 1
        if rank == 0:
            lam_max = 0.0
            capture = 0.0
        out.append(
            ConditionalProjectorStats(
                word=word,
                class_sizes={batch.labels[j]: na for j, na in cls},
                class_stats=class_stats,
                capture=capture,
                rank=rank,
                lambda_max=lam_max,
            )
        )
    return out


def conditional_projector_stats(
    channel: CQChannel, word, alpha: float, preset: str = PRESET_FIXED
) -> ConditionalProjectorStats:
    batch = _word_batch(
        _letter_states(channel, channel.alphabet), [word], channel.alphabet, "conditioning word is empty"
    )
    return _class_stats(batch, alpha, resolve_preset(preset))[0]


@dataclass(frozen=True)
class CrossCaptureStats:
    """Exact overlap of a word's product state with the averaged-state projector."""

    word: tuple
    tau: float
    capture: float
    variance_sum: float  # sum over indices of the count variance
    mean_shift: float  # max index-wise |mean count/n - projector eigenvalue|


def _composition_ranks(counts: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Row index of each count vector in its lexicographic count-class table.

    A vector c of m over d letters is preceded by the vectors whose first
    differing count is smaller: sum_i [C(r_i + p_i, p_i) - C(r_i - c_i + p_i, p_i)]
    with r_i = m - c_0 - ... - c_(i-1) and p_i = d - 1 - i.
    """
    d = counts.shape[1]
    rank = np.zeros(len(counts), dtype=np.int64)
    remaining = counts.sum(axis=1)
    for i in range(d - 1):
        p = d - 1 - i
        rank += binom[remaining + p, p] - binom[remaining - counts[:, i] + p, p]
        remaining = remaining - counts[:, i]
    return rank


def _letter_count_masses(q: np.ndarray, classes, allowed: np.ndarray) -> np.ndarray:
    """Mass of the summed letter counts inside the windows, per instance.

    q[:, j] holds letter j's eigen-index probabilities for each of S
    instances that share their classes ((letter index, size) pairs).  Each
    class's count distribution lives on its count table; classes are
    combined one at a time as an outer sum of tables, merged onto the table
    of the combined length.  allowed is _eigen_allowed of the projector
    spectra.
    """
    s_count, d = q.shape[0], q.shape[-1]
    sizes = [na for _, na in classes]
    pairs = max(_table_rows(sum(sizes[:k]), d) * _table_rows(na, d) for k, na in enumerate(sizes))
    _require_table_bytes(pairs * (d + 1) * 8, f"outer sum of count classes for n={sum(sizes)}, d={d}")
    # each instance adds a mass and an index per pair: take instances in chunks
    chunk = max(1, COUNT_TABLE_BYTE_LIMIT // (16 * pairs))
    if s_count > chunk:
        return np.concatenate(
            [_letter_count_masses(q[i : i + chunk], classes, allowed[i : i + chunk]) for i in range(0, s_count, chunk)]
        )
    length = 0
    probs = np.ones((s_count, 1))
    keys = np.zeros((1, d), dtype=np.intp)
    for j, na in classes:
        table = _count_table(na, d)
        mass = table.weights * _class_products(_power_table(q[:, j], na), table.counts)
        length += na
        merged = _count_table(length, d)
        pair_keys = (keys[:, None, :] + table.counts[None, :, :]).reshape(-1, d)
        slots = _composition_ranks(pair_keys, merged.binomials)
        rows = len(merged.counts)
        flat = (np.arange(s_count)[:, None] * rows + slots).ravel()
        pair_mass = (probs[:, :, None] * mass[:, None, :]).reshape(s_count, -1)
        probs = np.bincount(flat, weights=pair_mass.ravel(), minlength=s_count * rows).reshape(s_count, rows)
        keys = merged.counts
    return np.where(_rows_allowed(allowed, keys), probs, 0.0).sum(axis=-1)


def _cross_stats(batch: _WordBatch, dist: ProbabilityDistribution, alpha: float, preset: str):
    """Cross-capture stats of every word; instances that share their letter
    classes are scored together."""
    a_size = len(batch.labels)
    mixtures = hermitian_part(_letter_sum(dist.weights, lambda j: batch.states[:, j]))
    w_all, u_all = hermitian_eigendecomposition(mixtures)
    w_all = _clean_eigenvalues(w_all)
    ut = u_all.conj().swapaxes(-1, -2)
    diag = np.clip(
        np.real(np.einsum("...ij,...ajk,...ki->...ai", ut, batch.states, u_all)), 0.0, None
    )
    groups: dict = {}
    for s, cls in enumerate(batch.classes):
        groups.setdefault(tuple(cls), []).append(s)
    out = [None] * len(batch.words)
    for cls, idx in groups.items():
        n = sum(na for _, na in cls)
        w, q = w_all[idx], diag[idx]
        tau = threshold_for(_averaged_state_alpha(alpha, a_size), n, preset)
        capture = _letter_count_masses(q, cls, _eigen_allowed(w, n, tau))
        mean = np.zeros(w.shape)
        var = np.zeros(len(idx))
        for j, na in cls:
            mean += na * q[:, j]
            var = var + (na * q[:, j] * (1.0 - q[:, j])).sum(axis=-1)
        shift = np.abs(mean / n - w).max(axis=-1, initial=0.0)
        for t, s in enumerate(idx):
            out[s] = CrossCaptureStats(
                word=batch.words[s],
                tau=tau,
                capture=float(capture[t]),
                variance_sum=float(var[t]),
                mean_shift=float(shift[t]),
            )
    return out


def cross_capture_stats(
    channel: CQChannel,
    word,
    dist: ProbabilityDistribution,
    alpha: float,
    preset: str = PRESET_FIXED,
) -> CrossCaptureStats:
    """tr(V(word) * averaged-state projector) evaluated exactly.

    The projector belongs to the averaged output state with threshold
    parameter alpha*sqrt(|alphabet|).  Counts of each projector eigen-index
    under the word's product state convolve exactly over letter classes.
    """
    _require_matching_alphabet(channel.alphabet, dist)
    batch = _word_batch(_letter_states(channel, dist.labels), [word], dist.labels, "word is empty")
    return _cross_stats(batch, dist, alpha, resolve_preset(preset))[0]


# ---------------------------------------------------------------------------
# Bound verification reports.
# ---------------------------------------------------------------------------

_EXPONENT_GRACE = 1e-9
_CAPTURE_GRACE = 1e-12


def _log_inverse_sum(eigenvalues: np.ndarray):
    """sum log2(1/lambda) over the positive eigenvalues, per spectrum of a stack."""
    return _kept_row_sums(eigenvalues, eigenvalues > 0.0, _log2_inverse)


def _log2_inverse(w: np.ndarray) -> np.ndarray:
    return np.log2(1.0 / w)


@dataclass
class ProjectorBoundReport:
    """Measured projector functionals against their quantitative bounds.

    'provable' bounds follow from counting arguments at the implemented
    thresholds and must always hold; 'reference' bounds carry the classic
    d/(4 n alpha^2)-style constants and unspecified-constant exponents, for
    which the smallest working constant is reported as empirical_K.
    """

    kind: str
    params: dict
    measured: dict
    reference_bounds: dict
    provable_bounds: dict
    flags: dict
    empirical_K: float

    def all_provable_hold(self) -> bool:
        return all(v for k, v in self.flags.items() if k.startswith("provable_"))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _spectrum_functionals(w: np.ndarray):
    """(entropy, log-inverse sum, spread) of each cleaned spectrum of an (S, d) stack."""
    return zip(
        spectrum_entropy_bits(w).tolist(),
        _log_inverse_sum(w).tolist(),
        (w * (1.0 - w)).sum(axis=-1).tolist(),
    )


def _bound_report(kind, params, d, alpha, a_size, capture, rank, lam_max, classes, entropy, equipartition):
    """The capture, counting and equipartition checks of one projector.

    classes lists (size, tau, entropy, log-inverse sum, spread) per letter
    class of the word; a state is one class of size n with a_size 1.  The
    empirical constant measures log-rank and log-lambda_max against n times
    entropy, over the scale a_size d alpha sqrt(n).  equipartition maps the
    counting exponent to the kind's equipartition exponent.
    """
    n = sum(size for size, *_ in classes)
    cheb_sum = quarter_sum = counting_exp = 0.0
    for size, tau, h, c, spread in classes:
        cheb_sum += spread / (size * tau**2)
        quarter_sum += d / (4.0 * size * tau**2)
        counting_exp += size * (h + tau * c)
    equip_exp = equipartition(counting_exp)
    capture_ref = 1.0 - a_size * d / (4.0 * n * alpha**2)

    log_rank = math.log2(rank) if rank > 0 else None
    log_lmax = math.log2(lam_max) if lam_max > 0.0 else None
    denom = a_size * d * alpha * math.sqrt(n)
    k_count = max(0.0, (log_rank - n * entropy) / denom) if log_rank is not None else 0.0
    k_equip = max(0.0, (log_lmax + n * entropy) / denom) if log_lmax is not None else 0.0
    return ProjectorBoundReport(
        kind=kind,
        params=params,
        measured={"capture": capture, "rank": rank, "lambda_max": lam_max},
        reference_bounds={"capture": capture_ref},
        provable_bounds={
            "capture_chebyshev": 1.0 - cheb_sum,
            "capture_quarter": 1.0 - quarter_sum,
            "counting_log2": counting_exp,
            "equipartition_log2": equip_exp,
        },
        flags={
            "reference_capture": bool(capture >= capture_ref - _CAPTURE_GRACE),
            "provable_capture_chebyshev": bool(capture >= 1.0 - cheb_sum - _CAPTURE_GRACE),
            "provable_capture_quarter": bool(capture >= 1.0 - quarter_sum - _CAPTURE_GRACE),
            "provable_counting": bool(log_rank is None or log_rank <= counting_exp + _EXPONENT_GRACE),
            "provable_equipartition": bool(log_lmax is None or log_lmax <= equip_exp + _EXPONENT_GRACE),
        },
        empirical_K=max(k_count, k_equip),
    )


def verify_state_projector_bounds(rho, n: int, alpha: float, preset: str = PRESET_FIXED):
    """Exact capture/counting/equipartition check for an i.i.d. state block.

    rho may also be an (S, d, d) stack of states; then the S reports come
    back as a list, with every spectral quantity computed for the whole stack
    at once.
    """
    # validated from the eigh whose spectrum the reports read
    op = _checked_spectrum(rho, "state", density=True, vectors=True)
    preset = resolve_preset(preset)
    d = op.matrix.shape[-1]
    tau = threshold_for(alpha, n, preset)
    stats = spectrum_projector_stats(op.spectrum.reshape(-1, d)[:, ::-1], n, tau)
    reports = []
    for capture, rank, lam_max, (entropy, c, spread) in zip(
        stats.capture.tolist(), stats.rank, stats.lambda_max.tolist(), _spectrum_functionals(stats.eigenvalues)
    ):
        params = {
            "d": d,
            "n": n,
            "alpha": float(alpha),
            "tau": tau,
            "preset": preset,
            "entropy_bits": entropy,
            "log_inverse_sum": c,
        }
        reports.append(
            _bound_report(
                "state", params, d, alpha, 1, capture, rank, lam_max,
                [(n, tau, entropy, c, spread)], entropy, lambda _: -n * (entropy - tau * c),
            )
        )
    return reports[0] if op.matrix.ndim == 2 else reports


def _conditional_report(word, dist, alpha, preset, d, cond, cross, cond_entropy_true, classes):
    """One conditional report from its word's class functionals (as _bound_report
    takes them) and its cross capture."""
    n = len(word)
    a_size = len(dist.labels)
    emp_cond_entropy = sum(size * h for size, _, h, _, _ in classes) / n
    type_counts = Counter(word)
    exact_type = all(
        abs(type_counts.get(a, 0) - n * wgt) <= 1e-9
        for a, wgt in zip(dist.labels, dist.weights)
    )
    params = {
        "d": d,
        "a": a_size,
        "n": n,
        "alpha": float(alpha),
        "preset": preset,
        "word_type": {str(k): v for k, v in sorted(type_counts.items(), key=lambda kv: str(kv[0]))},
        "exact_type": exact_type,
        "conditional_entropy_bits": cond_entropy_true,
        "empirical_conditional_entropy_bits": emp_cond_entropy,
        "cross_tau": cross.tau,
    }
    report = _bound_report(
        "conditional", params, d, alpha, a_size, cond.capture, cond.rank, cond.lambda_max,
        classes, cond_entropy_true, lambda counting: counting - 2.0 * n * emp_cond_entropy,
    )
    capture_ref = report.reference_bounds["capture"]
    cross_provable = 1.0 - cross.variance_sum / (n * cross.tau) ** 2 if exact_type else None
    report.measured.update(cross_capture=cross.capture, cross_mean_shift=cross.mean_shift)
    report.reference_bounds["cross_capture"] = capture_ref
    report.provable_bounds["cross_capture"] = cross_provable
    report.flags["reference_cross_capture"] = bool(cross.capture >= capture_ref - _CAPTURE_GRACE)
    if cross_provable is not None:
        report.flags["provable_cross_capture"] = bool(cross.capture >= cross_provable - _CAPTURE_GRACE)
    return report


def verify_conditional_projector_bounds(
    channel,
    word,
    dist: ProbabilityDistribution,
    alpha: float,
    preset: str = PRESET_FIXED,
):
    """Conditional capture/counting/equipartition plus the cross-capture check.

    The conditional bounds use the word's empirical type exactly; the
    reference forms use the supplied input distribution.  Cross capture pairs
    the word's product state with the averaged-state projector at threshold
    parameter alpha*sqrt(|alphabet|).

    channel may also be an (S, |A|, d, d) stack of letter states, row s
    holding instance s's states in dist's label order, with word a list of
    S words; then the S reports come back as a list, with every spectral
    quantity computed for the whole batch at once.  Every letter state is
    checked as a density operator.
    """
    single = isinstance(channel, CQChannel)
    if single:
        _require_matching_alphabet(channel.alphabet, dist)
    stack, words = (_letter_states(channel, dist.labels), [word]) if single else (channel, list(word))
    preset = resolve_preset(preset)
    batch = _word_batch(stack, words, dist.labels, "conditioning word is empty")
    states = _checked_spectrum(batch.states, "channel state", density=True)
    d = states.matrix.shape[-1]
    conds = _class_stats(batch, alpha, preset)
    crosses = _cross_stats(batch, dist, alpha, preset)

    # conditional_entropy's sum, on the letter spectra the check above read
    letter_entropy = spectrum_entropy_bits(states.spectrum)
    cond_entropy = _letter_sum(dist.weights, lambda j: letter_entropy[:, j])

    class_w = np.array([stats.eigenvalues for cond in conds for stats in cond.class_stats.values()])
    functionals = _spectrum_functionals(class_w)
    reports = [
        _conditional_report(
            batch.words[s], dist, alpha, preset, d, cond, cross, float(cond_entropy[s]),
            [(stats.n, stats.tau, *next(functionals)) for stats in cond.class_stats.values()],
        )
        for s, (cond, cross) in enumerate(zip(conds, crosses))
    ]
    return reports[0] if single else reports
