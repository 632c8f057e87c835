"""Frequency-typical sets, typical subspace projectors, and quantitative bounds.

Typicality is frequency-based throughout: a word is typical when every letter
(or eigen-index) count sits within a threshold of its mean.  Two threshold
presets are supported for projectors: "fixed" uses the raw parameter alpha as
the per-index threshold, "sqrt" scales it as alpha/sqrt(block length).

A projector's included eigen-index words are held once, as a bool mask over
the d^n product-basis words, built from eigen-index counts and read back
into words on request; no table of all d^n words is formed.

Scalar projector functionals (captured trace, rank and largest compressed
eigenvalue) are evaluated exactly by summing over letter-count classes.  A
word state's capture by the averaged-state projector is the mass of the
projector's eigen-index counts inside their windows: that law grows one word
position at a time on a dense grid of counts.  Both work far beyond the
block lengths whose masks fit the memory budget; the
verify_*_projector_bounds reports read them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass
from collections import Counter

import numpy as np

from .channels import CQChannel, _letter_sum, _require_matching_alphabet, output_state
from .errors import InvalidInputError, ResourceLimitError
from .operators import (
    _integral,
    _kept_row_sums,
    _power,
    _require_bytes,
    _support_cut,
    _within,
    ProbabilityDistribution,
    checked_operator,
    compositions,
    hermitian_part,
    kron_column_chunks,
    product_columns,
    spectrum_entropy_bits,
    tensor_all,
)

PRESET_FIXED = "fixed"
PRESET_SQRT = "sqrt"


def resolve_preset(preset: str) -> str:
    if preset not in (PRESET_FIXED, PRESET_SQRT):
        raise InvalidInputError(f"unknown threshold preset {preset!r}")
    return preset


def _block_length(n, what: str = "block length") -> int:
    """n as an int: an integer, or an integral float, of at least 1 and not a bool."""
    length = _integral(n)
    if length is None or length < 1:
        raise InvalidInputError(f"{what} must be an integer >= 1, got {n!r}")
    return length


def _positive_finite(value, what: str) -> float:
    """A positive finite number, not a bool, as a float."""
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0.0):
        raise InvalidInputError(f"{what} must be positive and finite, got {value}")
    return float(value)


def threshold_for(alpha: float, length: int, preset: str) -> float:
    """Per-index frequency threshold for a block of the given length.

    alpha must be a positive finite number whose bounds stay representable:
    tau^2 may not underflow to 0 and (length * alpha)^2 may not overflow.
    """
    alpha = _positive_finite(alpha, "threshold parameter")
    length = _block_length(length)
    tau = alpha if resolve_preset(preset) == PRESET_FIXED else alpha / math.sqrt(length)
    scaled = length * alpha
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
        n = _block_length(n, "word length")
        delta = _positive_finite(delta, "delta")
        d = len(dist.labels)
        # the mask and the float window tests it is read from
        _require_bytes(24 * d * (n + 1), f"typical-set mask for n={n}, d={d}")
        self.dist = dist
        self.n = n
        self.delta = delta
        self.threshold = self.delta / d
        self._allowed = _count_allowed(dist.weights, self.n, self.threshold)
        # windows are intervals, so every total between the sums is reachable
        lo, hi = np.array(self.count_windows()).T
        self._empty = not ((lo <= hi).all() and lo.sum() <= self.n <= hi.sum())

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

    def _member_classes(self):
        """The count-class table of (n, |alphabet|) and its member-row flags."""
        table = _count_table(self.n, len(self.dist.labels))
        return table, _rows_allowed(self._allowed, table.counts)

    def type_classes(self) -> list[tuple[tuple[int, ...], float]]:
        """Each member count vector with its class's product-distribution
        mass, the multinomial times prod_i w_i^(c_i), in table order."""
        table, keep = self._member_classes()
        counts = table.counts[keep]
        masses = table.weights[keep] * _class_products(_power_table(self.dist.weights, self.n), counts)
        return list(zip(map(tuple, counts.tolist()), masses.tolist()))

    def size(self) -> int:
        """Exact number of member words."""
        table, keep = self._member_classes()
        return int(table.multinomials[keep].sum())

    def probability(self) -> float:
        """Exact product-distribution mass of the set: the class masses summed in table order."""
        return sum(mass for _, mass in self.type_classes())

    def sample(self, rng, max_tries: int) -> tuple:
        """Draw i.i.d. words from the distribution until one is a member.

        Each try makes the draws of rng.choice(d, size=n, p=weights).  An
        empty set is refused before the first draw.
        """
        if self._empty:
            raise InvalidInputError(f"typical set is empty for n={self.n}, delta={self.delta}; no words to draw")
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

    def mixture_apply(self, channel: CQChannel, block: np.ndarray) -> np.ndarray:
        """(sum over member words w of p(w) W(w_1) (x) ... (x) W(w_n)) @ block.

        p is the unnormalized product weight of the set's distribution and W
        the channel's letter states.  Partial sums are kept per letter-count
        vector of the positions applied so far, so each position costs one
        mode product per count vector and letter instead of one kron_apply
        per member word.  Count vectors that can no longer end inside the
        count windows are dropped on the way.
        """
        dist, n = self.dist, self.n
        windows = self.count_windows()
        d = channel.output_dim
        cols = block.shape[1]
        letters = [(i, p * channel.state(a)) for i, (a, p) in enumerate(zip(dist.labels, dist.weights)) if p > 0.0]
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
        out = np.zeros(block.shape, dtype=np.result_type(block, *(state for _, state in letters)))
        for blk in partial.values():
            out += blk.reshape(block.shape)
        return out

    def mixture_sums(self) -> int:
        """The most partial sums mixture_apply holds at once: the count vectors
        of k and of k + 1 letters that can still end inside the windows."""
        lo, hi = np.array(self.count_windows()).T
        prefixes = ((k, compositions(k, len(lo))) for k in range(self.n + 1))
        alive = [((c <= hi) & (c + self.n - k >= lo)).all(axis=1).sum() for k, c in prefixes]
        return int(max(np.add(alive[:-1], alive[1:])))


def _clean_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Each spectrum of a (..., d) array with its values off the support
    (at or below SUPPORT_REL_TOL times its largest) set to exact zeros."""
    w = np.asarray(values, dtype=float).copy()
    w[w <= _support_cut(w)] = 0.0
    return w


def _index_counts(positions, n: int, d: int, index: int) -> np.ndarray:
    """How often eigen-index `index` sits at the given positions, for each of
    the d^n index words in product-basis order.

    Built from the last position to the first: the counts over positions
    k..n-1 are d contiguous blocks, one per index at k, each the counts over
    k+1..n-1 plus that index's own count; no array has n axes.
    """
    dtype = np.min_scalar_type(len(positions))
    step = (np.arange(d) == index).astype(dtype)
    still = np.zeros(d, dtype=dtype)
    counts = np.zeros(1, dtype=dtype)
    for k in reversed(range(n)):
        counts = np.add.outer(step if k in positions else still, counts).ravel()
    return counts


def _mask_words(mask: np.ndarray, d: int, n: int) -> np.ndarray:
    """The (R, n) index words a mask over the d^n product-basis words flags,
    in product-basis (lexicographic) order: the flagged flat indices split
    into base-d digits."""
    rank = int(np.count_nonzero(mask))
    _require_bytes(8 * (n + 2) * rank, f"{rank} index words of length {n}")
    rest = np.flatnonzero(mask)
    words = np.empty((len(rest), n), dtype=np.intp)
    for k in range(n - 1, -1, -1):
        rest, words[:, k] = np.divmod(rest, d)
    return words


@dataclass(frozen=True, eq=False)
class TypicalProjector:
    """Projector onto jointly typical eigen-index sequences given an input word.

    For each letter class the eigen-index sub-word must be typical for that
    letter's output spectrum, with the class size as the effective block
    length.  The projector of an n-fold product state is the case of a
    constant word (letter 0).  mask flags the included index words over all
    d^n product-basis positions; it is the one record of them, and
    index_words() lists the words it flags.
    """

    word: tuple
    eigenvalues: dict  # letter -> descending spectrum
    bases: dict  # letter -> eigenvector columns
    taus: dict  # letter -> per-class threshold
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
        return _mask_words(self.mask, self.dim, self.n)

    def factors(self) -> list:
        """The eigenbasis at each position of the word."""
        return [self.bases[a] for a in self.word]

    def included_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the projector's range."""
        return product_columns(self.factors(), self.index_words())

    def matrix(self) -> np.ndarray:
        """Dense realization in the computational product basis: (U mask) U†
        for the product eigenbasis U, priced as four N x N arrays."""
        itemsize = np.result_type(*self.bases.values()).itemsize
        _require_bytes(4 * self.mask.size**2 * itemsize, f"dense projector for n={self.n}")
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

    decompositions maps each letter of the word, and possibly others, to its
    state's descending spectrum and eigenvector columns.  The public
    constructors price the mask (_projector_bytes) before they form
    anything of size n, typical_projector's constant word included.
    """
    n = len(word)
    d = len(next(iter(decompositions.values()))[0])
    mask = np.ones(d**n, dtype=bool)
    eigs, bases, taus = {}, {}, {}
    for a, na in Counter(word).items():
        w, u = decompositions[a]
        w = _clean_eigenvalues(w)
        tau_a = threshold_for(alpha, na, preset)
        eigs[a], bases[a], taus[a] = w, u, tau_a
        positions = {k for k, b in enumerate(word) if b == a}
        allowed = _eigen_allowed(w, na, tau_a)
        for i in range(d):
            mask &= allowed[i, _index_counts(positions, n, d, i)]
    return TypicalProjector(word=word, eigenvalues=eigs, bases=bases, taus=taus, mask=mask)


def _projector_bytes(d: int, n: int) -> float:
    """Peak of building one projector's mask over d^n words: the mask, the
    lookup it is cut by, and two generations of eigen-index counts."""
    return _power(d, n) * (2 + 2 * np.min_scalar_type(n).itemsize)


def _eigenpairs(states, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Descending spectrum and matching eigenvector columns of a density
    operator, or of each of a (..., d, d) stack, from the eigh of its check."""
    op = checked_operator(states, name, density=True, vectors=True)
    return op.spectrum[..., ::-1].copy(), op.vectors[..., ::-1].copy()


def _projector_rank(decompositions: dict, word: tuple, alpha: float, preset: str) -> int:
    """The rank _projector's mask would have, read from the count windows
    of the word's letter classes; no mask is built."""
    return math.prod(
        spectrum_projector_stats(decompositions[a][0], na, threshold_for(alpha, na, preset)).rank
        for a, na in Counter(word).items()
    )


def typical_projector(rho, n: int, alpha: float, preset: str = PRESET_FIXED) -> TypicalProjector:
    """Typical projector of the n-fold product of a state: the constant word of letter 0."""
    if np.ndim(rho) != 2:
        raise InvalidInputError(f"state must be one d x d matrix, got shape {np.shape(rho)}")
    # validated from the one eigh whose decomposition the projector reads
    w, u = _eigenpairs(rho, "state")
    n = _block_length(n)
    _require_bytes(_projector_bytes(u.shape[0], n), f"typical projector for n={n}")
    return _projector({0: (w, u)}, (0,) * n, alpha, preset)


def conditional_typical_projector(
    channel: CQChannel, word, alpha: float, preset: str = PRESET_FIXED
) -> TypicalProjector:
    """Typical projector of the product state selected by an input word."""
    word = tuple(word)
    if not word:
        raise InvalidInputError("conditioning word is empty")
    _require_bytes(_projector_bytes(channel.output_dim, len(word)), f"typical projector for n={len(word)}")
    return _projector(
        {a: _eigenpairs(channel.state(a), "channel state") for a in dict.fromkeys(word)}, word, alpha, preset
    )


def _averaged_state_alpha(alpha: float, a_size: int, n: int, preset: str) -> float:
    """alpha*sqrt(|alphabet|), checked at block length n; a refusal names the given alpha."""
    scaled = _positive_finite(alpha, "threshold parameter") * math.sqrt(a_size)
    n, preset = _block_length(n), resolve_preset(preset)
    try:
        threshold_for(scaled, n, preset)
    except InvalidInputError:
        raise InvalidInputError(
            f"threshold parameter {alpha} times sqrt(|A|) = sqrt({a_size}) for the averaged state"
            f" is out of range at block length {n}"
        ) from None
    return scaled


def averaged_state_projector(
    channel: CQChannel,
    dist: ProbabilityDistribution,
    n: int,
    alpha: float,
    preset: str = PRESET_FIXED,
) -> TypicalProjector:
    """Typical projector of the n-fold averaged output state, at threshold
    parameter alpha*sqrt(|alphabet|)."""
    rho = output_state(channel, dist)
    return typical_projector(rho, n, _averaged_state_alpha(alpha, len(channel.alphabet), n, preset), preset)


# ---------------------------------------------------------------------------
# Exact scalar evaluation over letter-count classes.
# ---------------------------------------------------------------------------

# Stacks of spectra and instances are scored in chunks that keep their
# working arrays near this many bytes.
COUNT_WORKING_BYTES = 32 * 2**20


@dataclass(frozen=True, eq=False)
class _CountTable:
    """Every letter-count vector of n over d letters, in lexicographic order."""

    counts: np.ndarray  # (R, d) count vectors
    multinomials: np.ndarray  # (R,) exact: int64, or Python ints beyond int64
    weights: np.ndarray  # (R,) the multinomials as floats


def _count_table_bytes(n: int, d: int) -> int:
    """Peak of building the (n, d) table: per row, the counts with five
    temporaries of their width and three object arrays of exact integers
    (the binomials read and the multinomials, of up to n log2(d) bits)."""
    exact = 8 + 32 + math.ceil(n * math.log2(d) / 8)
    return math.comb(n + d - 1, d - 1) * (40 * d + 3 * exact + 16)


def _binomial_rows(n: int, d: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The exact binomial rows C(m, 0..m) the (n, d) table reads, flattened
    as dtype, and where each row m starts: rows 0..n for d > 2, row n alone
    for d = 2, none for d = 1.  Each row follows C(m, k + 1) = C(m, k) (m - k) / (k + 1)."""
    start = np.zeros(n + 1, dtype=np.intp)
    flat = []
    for m in range(n + 1) if d > 2 else range(n, n + d - 1):
        start[m] = len(flat)
        flat.append(1)
        for k in range(m):
            flat.append(flat[-1] * (m - k) // (k + 1))
    return np.array(flat, dtype=dtype), start


def _count_table(n: int, d: int) -> _CountTable:
    """The (n, d) count-class table.  It is priced first; then its largest
    multinomial, that of the most balanced counts, is checked against the
    float range before any other is formed."""
    _require_bytes(_count_table_bytes(n, d), f"count-class table for n={n}, d={d}")
    q, r = divmod(n, d)
    if math.factorial(n) // (math.factorial(q + 1) ** r * math.factorial(q) ** (d - r)) > sys.float_info.max:
        raise InvalidInputError(
            f"block length n={n} is out of range for d={d}: its count classes have multinomials beyond the float range"
        )
    # every multinomial, and every sum of them, is at most d^n
    exact = np.int64 if n * math.log2(d) < 63 else object
    counts = compositions(n, d)
    binomials, start = _binomial_rows(n, d, exact)
    # multinomial = prod_i C(left_i, c_i), with left_i = n - c_0 - ... - c_(i-1)
    mult, left = np.ones(len(counts), dtype=exact), n
    for i in range(d - 1):
        mult = mult * binomials[start[left] + counts[:, i]]
        left = left - counts[:, i]
    return _CountTable(counts=counts, multinomials=mult, weights=mult.astype(float))


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


def _score_spectra(table: _CountTable, n: int, w: np.ndarray, tau: np.ndarray):
    """Captures, exact ranks and largest products of an (S, d) stack of
    spectra, scored against the table of their (n, d)."""
    mask = _rows_allowed(_eigen_allowed(w, n, tau), table.counts)
    p = _class_products(_power_table(w, n), table.counts)
    # a sequential running sum adds the admissible classes in table order
    capture = np.cumsum(np.where(mask, table.weights * p, 0.0), axis=-1)[:, -1]
    ranks = np.where(mask, table.multinomials, 0).sum(axis=-1)
    lam_max = np.where(mask, p, 0.0).max(axis=-1, initial=0.0)
    return capture, ranks, lam_max


@dataclass(frozen=True)
class SpectrumProjectorStats:
    """Exact projector functionals for an i.i.d. spectrum block.

    For a stack of spectra, capture, rank and lambda_max are arrays with one
    entry per spectrum (rank holds exact Python ints).
    """

    eigenvalues: np.ndarray
    capture: float  # tr(rho^(x) n * projector)
    rank: int  # tr(projector)
    lambda_max: float  # largest eigenvalue of the compressed state


def spectrum_projector_stats(eigenvalues, n, tau) -> SpectrumProjectorStats:
    """Exact stats of one spectrum, or of an (S, d) stack of spectra.

    For a stack, n and tau may be scalars or one value per spectrum; each n
    is an integer >= 1 and each tau finite and >= 0.  One count-class table
    is built per block length, and its spectra are scored against it in
    chunks: the capture adds the admissible classes in table order, so it
    matches a class-by-class loop bit for bit.
    """
    w = _clean_eigenvalues(np.asarray(eigenvalues, dtype=float))
    flat = w.reshape(-1, w.shape[-1])
    lengths = np.broadcast_to(np.asarray(n), (len(flat),))
    taus = np.broadcast_to(np.asarray(tau, dtype=float), (len(flat),))
    if not (np.isfinite(taus) & (taus >= 0.0)).all():
        raise InvalidInputError(f"thresholds must be finite and >= 0, got {tau!r}")
    capture = np.zeros(len(flat))
    lam_max = np.zeros(len(flat))
    ranks = np.zeros(len(flat), dtype=object)
    for length in sorted({_block_length(k) for k in set(lengths.tolist())}):
        table = _count_table(length, w.shape[-1])
        # each spectrum holds a few rows of table length at once
        chunk = max(1, COUNT_WORKING_BYTES // (32 * len(table.counts)))
        rows = np.flatnonzero(lengths == length)
        for part in (rows[i : i + chunk] for i in range(0, len(rows), chunk)):
            capture[part], ranks[part], lam_max[part] = _score_spectra(table, length, flat[part], taus[part])
    if w.ndim == 1:
        capture, ranks, lam_max = float(capture[0]), int(ranks[0]), float(lam_max[0])
    else:
        capture, ranks, lam_max = (a.reshape(w.shape[:-1]) for a in (capture, ranks, lam_max))
    return SpectrumProjectorStats(eigenvalues=w, capture=capture, rank=ranks, lambda_max=lam_max)


def _word_batch(states, words, labels) -> tuple:
    """(words, states, classes) of a stack of instances: states[s, j] is the
    state of letter labels[j] in instance s, and classes[s] lists (letter
    index, class size) in order of first appearance in word s."""
    words = [tuple(word) for word in words]
    states = np.asarray(states)
    if states.ndim != 4 or states.shape[:2] != (len(words), len(labels)) or states.shape[2] != states.shape[3]:
        raise InvalidInputError(
            f"letter states must form an ({len(words)}, {len(labels)}, d, d) stack, got shape {states.shape}"
        )
    position = {a: j for j, a in enumerate(labels)}
    classes = []
    for word in words:
        if not word:
            raise InvalidInputError("conditioning word is empty")
        for a in word:
            if a not in position:
                raise InvalidInputError(f"input {a!r} not in channel alphabet")
        classes.append([(position[a], na) for a, na in Counter(word).items()])
    return words, states, classes


def _class_stats(classes, spectra: np.ndarray, alpha: float, preset: str) -> list:
    """Per instance, its projector's capture, rank and largest compressed
    eigenvalue, and its classes as _bound_report takes them.

    spectra[s, j] is the ascending spectrum of letter j in instance s; every
    class is scored in one stack, from its letter's spectrum reversed.
    """
    pairs = [(s, j, na) for s, cls in enumerate(classes) for j, na in cls]
    sizes = [na for _, _, na in pairs]
    taus = [threshold_for(alpha, na, preset) for na in sizes]
    w = np.array([spectra[s, j, ::-1] for s, j, _ in pairs]).reshape(len(pairs), spectra.shape[-1])
    stats = spectrum_projector_stats(w, np.array(sizes), np.array(taus))
    w = stats.eigenvalues
    log_inverse = _kept_row_sums(w, w > 0.0, lambda v: np.log2(1.0 / v))
    rows = zip(sizes, taus, stats.capture.tolist(), stats.rank, stats.lambda_max.tolist(),
               spectrum_entropy_bits(w).tolist(), log_inverse.tolist(), (w * (1.0 - w)).sum(axis=-1).tolist())
    out = []
    for cls in classes:
        capture, rank, lam_max, terms = 1.0, 1, 1.0, []
        for size, tau, class_capture, class_rank, class_lam_max, *spectral in itertools.islice(rows, len(cls)):
            capture *= class_capture
            rank *= class_rank
            lam_max *= class_lam_max
            terms.append((size, tau, *spectral))
        out.append((capture, rank, lam_max, terms) if rank else (0.0, 0, 0.0, terms))
    return out


def _count_law_bytes(s_count: int, n: int, d: int) -> float:
    """Peak of _count_law_masses on s_count instances: per instance, three
    float grids (the grid, its spare and one shifted product; later the grid
    and its masked copy) and the window mask; once, the implied last count
    and two temporaries of its size, and numpy's buffers for the three
    operands of a broadcast product."""
    return _power(n + 1, d - 1) * (25 * s_count + 24) + 24 * np.getbufsize()


def _count_law_masses(q: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Mass of the eigen-index counts inside the windows, per instance.

    q[s, k] holds the eigen-index probabilities at position k of instance
    s, and allowed is _eigen_allowed of the projector spectra.  The law of
    the counts grows one position at a time on a dense grid over the first
    d - 1 counts, the last implied by the total: each step scales the grid
    by the last index's probability and adds it shifted by one along each
    other index's axis, times that index's.  After k positions no count
    passes k, so each step works on the grid's corner below k + 2.
    """
    s_count, n, d = q.shape
    chunk = max(1, int(COUNT_WORKING_BYTES // _count_law_bytes(1, n, d)))
    _require_bytes(_count_law_bytes(min(s_count, chunk), n, d), f"count law for n={n}, d={d}")
    if s_count > chunk:
        return np.concatenate(
            [_count_law_masses(q[i : i + chunk], allowed[i : i + chunk]) for i in range(0, s_count, chunk)]
        )
    shape = (s_count,) + (n + 1,) * (d - 1)
    grid, spare = np.zeros(shape), np.zeros(shape)
    grid[(slice(None),) + (0,) * (d - 1)] = 1.0
    p = q.reshape((s_count, n, d) + (1,) * (d - 1))
    for k in range(n):
        corner = (slice(None),) + (slice(k + 2),) * (d - 1)
        old, new = grid[corner], spare[corner]
        np.multiply(old, p[:, k, d - 1], out=new)
        for i in range(d - 1):
            before = (slice(None),) * (i + 1)
            new[before + (slice(1, None),)] += p[:, k, i] * old[before + (slice(None, -1),)]
        grid, spare = spare, grid
    del spare
    counts = np.indices(shape[1:], sparse=True)
    # where the first counts pass n the grid holds no mass, so any last count does
    inside = allowed[:, d - 1, np.maximum(n - sum(counts), 0)]
    for i, c in enumerate(counts):
        inside &= allowed[:, i, c]
    return np.where(inside, grid, 0.0).reshape(s_count, -1).sum(axis=-1)


def _cross_stats(states: np.ndarray, classes, dist: ProbabilityDistribution, alpha: float, preset: str) -> list:
    """Per instance, the overlap of its word's product state with the
    averaged-state projector: (tau, capture, variance sum, mean shift), the
    variance summed over indices and the shift the largest index-wise
    |mean count/n - projector eigenvalue|.

    The capture is the mass of the projector's eigen-index counts inside
    their windows under the word's product state, whose positions are
    independent: _count_law_masses grows that law position by position, for
    all instances of one word length at once.  The mean and the variance
    add up class by class, in each word's order of first appearance.
    """
    mixtures = hermitian_part(_letter_sum(dist.weights, lambda j: states[:, j]))
    w_all, u_all = _eigenpairs(mixtures, "averaged state")
    w_all = _clean_eigenvalues(w_all)
    ut = u_all.conj().swapaxes(-1, -2)
    diag = np.clip(np.real(np.einsum("...ij,...ajk,...ki->...ai", ut, states, u_all)), 0.0, None)
    lengths = np.array([sum(na for _, na in cls) for cls in classes])
    out = [None] * len(classes)
    for n in sorted(set(lengths.tolist())):
        idx = np.flatnonzero(lengths == n)
        rows = np.arange(len(idx))
        w, q = w_all[idx], diag[idx]
        tau = threshold_for(_averaged_state_alpha(alpha, len(dist.labels), n, preset), n, preset)
        letters = np.array([[j for j, na in classes[s] for _ in range(na)] for s in idx])
        capture = _count_law_masses(q[rows[:, None], letters], _eigen_allowed(w, n, tau))
        # words with fewer classes are padded with empty ones, which add zeros
        width = max(len(classes[s]) for s in idx)
        padded = np.array([classes[s] + [(0, 0)] * (width - len(classes[s])) for s in idx])
        mean = np.zeros(w.shape)
        var = np.zeros(len(idx))
        for j, na in padded.transpose(1, 2, 0):
            qj, na = q[rows, j], na[:, None]
            mean += na * qj
            var = var + (na * qj * (1.0 - qj)).sum(axis=-1)
        shift = np.abs(mean / n - w).max(axis=-1, initial=0.0)
        for t, s in enumerate(idx):
            out[s] = (tau, float(capture[t]), float(var[t]), float(shift[t]))
    return out


# ---------------------------------------------------------------------------
# Bound verification reports.
# ---------------------------------------------------------------------------

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
            "reference_capture": _within(capture_ref, capture),
            "provable_capture_chebyshev": _within(1.0 - cheb_sum, capture),
            "provable_capture_quarter": _within(1.0 - quarter_sum, capture),
            "provable_counting": log_rank is None or _within(log_rank, counting_exp),
            "provable_equipartition": log_lmax is None or _within(log_lmax, equip_exp),
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
    op = checked_operator(rho, "state", density=True, vectors=True)
    preset = resolve_preset(preset)
    d, n = op.matrix.shape[-1], _block_length(n)
    threshold_for(alpha, n, preset)  # refused for an empty stack too
    spectra = op.spectrum.reshape(-1, 1, d)
    reports = []
    for capture, rank, lam_max, classes in _class_stats([[(0, n)]] * len(spectra), spectra, alpha, preset):
        ((_, tau, entropy, c, _),) = classes
        params = dict(d=d, n=n, alpha=float(alpha), tau=tau, preset=preset, entropy_bits=entropy, log_inverse_sum=c)
        reports.append(_bound_report(
            "state", params, d, alpha, 1, capture, rank, lam_max, classes, entropy, lambda _: -n * (entropy - tau * c)
        ))
    return reports[0] if op.matrix.ndim == 2 else reports


def _conditional_report(word, dist, alpha, preset, d, cond, cross, cond_entropy_true):
    """One conditional report from its word's _class_stats and _cross_stats rows."""
    capture, rank, lam_max, classes = cond
    cross_tau, cross_capture, variance_sum, mean_shift = cross
    n = len(word)
    a_size = len(dist.labels)
    emp_cond_entropy = sum(size * h for size, _, h, _, _ in classes) / n
    type_counts = Counter(word)
    exact_type = all(
        _within(type_counts.get(a, 0), n * wgt) and _within(n * wgt, type_counts.get(a, 0))
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
        "cross_tau": cross_tau,
    }
    report = _bound_report(
        "conditional", params, d, alpha, a_size, capture, rank, lam_max,
        classes, cond_entropy_true, lambda counting: counting - 2.0 * n * emp_cond_entropy,
    )
    capture_ref = report.reference_bounds["capture"]
    cross_provable = 1.0 - variance_sum / (n * cross_tau) ** 2 if exact_type else None
    report.measured.update(cross_capture=cross_capture, cross_mean_shift=mean_shift)
    report.reference_bounds["cross_capture"] = capture_ref
    report.provable_bounds["cross_capture"] = cross_provable
    report.flags["reference_cross_capture"] = _within(capture_ref, cross_capture)
    if cross_provable is not None:
        report.flags["provable_cross_capture"] = _within(cross_provable, cross_capture)
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
    checked as a density operator, and the check's one eigvalsh of the stack
    gives every spectrum the conditional projectors read.
    """
    single = isinstance(channel, CQChannel)
    if single:
        _require_matching_alphabet(channel.alphabet, dist)
    stack, words = (np.array([[channel.state(a) for a in dist.labels]]), [word]) if single else (channel, list(word))
    preset = resolve_preset(preset)
    words, stack, classes = _word_batch(stack, words, dist.labels)
    # real states stay float64, so a real channel's eigensolves are real
    states = checked_operator(stack, "channel state", density=True)
    conds = _class_stats(classes, states.spectrum, alpha, preset)
    crosses = _cross_stats(states.matrix, classes, dist, alpha, preset)

    # conditional_entropy's sum, on the letter spectra the check above read
    letter_entropy = spectrum_entropy_bits(states.spectrum)
    cond_entropy = _letter_sum(dist.weights, lambda j: letter_entropy[:, j])
    reports = [
        _conditional_report(word, dist, alpha, preset, stack.shape[-1], cond, cross, float(entropy))
        for word, cond, cross, entropy in zip(words, conds, crosses, cond_entropy)
    ]
    return reports[0] if single else reports
