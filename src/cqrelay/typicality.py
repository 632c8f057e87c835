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

import itertools
import math
from dataclasses import dataclass
from collections import Counter

import numpy as np

from .channels import CQChannel, conditional_entropy, output_state
from .errors import InvalidInputError, ResourceLimitError
from .operators import (
    DEFAULT_DIM_CAP,
    ZERO_EIGENVALUE_TOL,
    ProbabilityDistribution,
    hermitian_eigendecomposition,
    hermitian_part,
    kron_apply,
    multinomial_coefficient,
    product_columns,
    spectrum_entropy_bits,
    tensor_all,
    validate_density,
)

PRESET_FIXED = "fixed"
PRESET_SQRT = "sqrt"
_PRESET_ALIASES = {"fixed": PRESET_FIXED, "sqrt": PRESET_SQRT, "sqrt-scaled": PRESET_SQRT}

DEFAULT_ENUMERATION_CAP = 1_000_000


def resolve_preset(preset: str) -> str:
    try:
        return _PRESET_ALIASES[preset]
    except KeyError:
        raise InvalidInputError(f"unknown threshold preset {preset!r}") from None


def threshold_for(alpha: float, length: int, preset: str) -> float:
    """Per-index frequency threshold for a block of the given length."""
    if alpha <= 0.0:
        raise InvalidInputError(f"threshold parameter must be positive, got {alpha}")
    if length < 1:
        raise InvalidInputError(f"block length must be >= 1, got {length}")
    if resolve_preset(preset) == PRESET_FIXED:
        return float(alpha)
    return float(alpha) / math.sqrt(length)


def _count_window(length: int, target: float, tau: float) -> tuple[int, int]:
    """Largest integer interval [lo, hi] with |k/length - target| <= tau.

    Boundary handling defers to the float predicate itself so that window
    arithmetic and direct membership checks can never disagree.
    """

    def pred(k: int) -> bool:
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


def _admissible_count_vectors(total: int, windows):
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
        kmin = max(lo, remaining - suffix_hi[i + 1])
        kmax = min(hi, remaining - suffix_lo[i + 1])
        for k in range(kmin, kmax + 1):
            yield from rec(i + 1, remaining - k, prefix + (k,))

    yield from rec(0, total, ())


def _weight_power(weights, counts) -> float:
    out = 1.0
    for w, k in zip(weights, counts):
        if k:
            if w <= 0.0:
                return 0.0
            out *= w**k
    return out


class TypicalSet:
    """Words whose letter frequencies all sit within delta/|alphabet| of the mean."""

    def __init__(self, dist: ProbabilityDistribution, n: int, delta: float):
        if n < 1:
            raise InvalidInputError(f"word length must be >= 1, got {n}")
        if delta <= 0.0:
            raise InvalidInputError(f"delta must be positive, got {delta}")
        self.dist = dist
        self.n = int(n)
        self.delta = float(delta)
        self.threshold = self.delta / len(dist.labels)
        self._windows = [
            _count_window(self.n, float(w), self.threshold) for w in dist.weights
        ]

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
        counts = self.counts(word)
        return all(
            abs(k / self.n - float(w)) <= self.threshold
            for k, w in zip(counts, self.dist.weights)
        )

    def count_windows(self) -> list[tuple[int, int]]:
        return list(self._windows)

    def count_vectors(self) -> list[tuple[int, ...]]:
        return list(_admissible_count_vectors(self.n, self._windows))

    def is_empty(self) -> bool:
        return not any(True for _ in _admissible_count_vectors(self.n, self._windows))

    def size(self) -> int:
        """Exact number of member words."""
        return sum(
            multinomial_coefficient(self.n, counts) for counts in self.count_vectors()
        )

    def probability(self) -> float:
        """Exact product-distribution mass of the set."""
        return sum(
            multinomial_coefficient(self.n, counts) * _weight_power(self.dist.weights, counts)
            for counts in self.count_vectors()
        )

    def members(self, cap: int = DEFAULT_ENUMERATION_CAP):
        """Yield all member words; refuses alphabets too large to enumerate."""
        total = len(self.dist.labels) ** self.n
        if total > cap:
            raise ResourceLimitError(
                f"enumerating {total} candidate words exceeds cap {cap}"
            )
        for word in itertools.product(self.dist.labels, repeat=self.n):
            if word in self:
                yield word


def typical_sequences(dist: ProbabilityDistribution, n: int, delta: float) -> TypicalSet:
    return TypicalSet(dist, n, delta)


def _clean_eigenvalues(values: np.ndarray) -> np.ndarray:
    w = np.asarray(values, dtype=float).copy()
    w[w <= ZERO_EIGENVALUE_TOL] = 0.0
    return w


def _eigen_windows(eigenvalues: np.ndarray, n: int, tau: float) -> list[tuple[int, int]]:
    # Zero eigenvalues are excluded outright: their index may not appear.
    return [
        (0, 0) if lam == 0.0 else _count_window(n, float(lam), tau)
        for lam in eigenvalues
    ]


def _index_words(d: int, n: int) -> np.ndarray:
    """All d^n index words as the rows of a (d^n, n) array, in product-basis order."""
    return np.indices((d,) * n).reshape(n, -1).T


def _within_windows(words: np.ndarray, d: int, windows) -> np.ndarray:
    """Row flags: every eigen-index count of the word lies in its window."""
    counts = (words[:, :, None] == np.arange(d)).sum(axis=1)
    lo, hi = np.array(windows).reshape(d, 2).T
    return ((counts >= lo) & (counts <= hi)).all(axis=1)


def _word_set(words: np.ndarray, keep: np.ndarray) -> frozenset:
    return frozenset(map(tuple, words[keep].tolist()))


def _sorted_words(included: frozenset, n: int) -> np.ndarray:
    """Included index words in product-basis (lexicographic) order, as an (R, n) array."""
    return np.array(sorted(included), dtype=np.intp).reshape(-1, n)


def _included_mask(included: frozenset, d: int, n: int) -> np.ndarray:
    """Flags of the included index words over all d^n product-basis positions."""
    mask = np.zeros(d**n, dtype=bool)
    mask[_sorted_words(included, n) @ d ** np.arange(n - 1, -1, -1)] = True
    return mask


def _product_projector(factors: list, included: frozenset) -> np.ndarray:
    """Dense sum of |v><v| over the product columns v of the included words.

    factors[k] is the orthonormal basis at position k.  Low rank or low
    corank sums outer products instead of forming full basis-change products.
    """
    n = len(factors)
    d = factors[0].shape[0]
    total = d**n
    r = len(included)
    if r == 0:
        return np.zeros((total, total), dtype=complex)
    if r * 4 <= total:
        cols = product_columns(factors, _sorted_words(included, n))
        return hermitian_part(cols @ cols.conj().T)
    mask = _included_mask(included, d, n)
    if (total - r) * 4 <= total:
        cols = product_columns(factors, _index_words(d, n)[~mask])
        return hermitian_part(np.eye(total, dtype=complex) - cols @ cols.conj().T)
    big = tensor_all(factors)
    return hermitian_part((big * mask) @ big.conj().T)


@dataclass(frozen=True, eq=False)
class TypicalProjector:
    """Projector onto typical eigen-index sequences of an n-fold product state."""

    eigenvalues: np.ndarray  # descending
    basis: np.ndarray  # eigenvector columns matching eigenvalues
    n: int
    alpha: float
    tau: float
    preset: str
    included: frozenset

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def rank(self) -> int:
        return len(self.included)

    def includes(self, index_word) -> bool:
        return tuple(index_word) in self.included

    def included_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the projector's range."""
        return product_columns([self.basis] * self.n, _sorted_words(self.included, self.n))

    def matrix(self) -> np.ndarray:
        """Dense realization in the computational product basis."""
        return _product_projector([self.basis] * self.n, self.included)


def typical_projector(
    rho,
    n: int,
    alpha: float,
    preset: str = PRESET_FIXED,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TypicalProjector:
    """Typical projector of the n-fold product of a state."""
    rho = validate_density(rho)
    if n < 1:
        raise InvalidInputError(f"block length must be >= 1, got {n}")
    d = rho.shape[0]
    if d**n > dim_cap:
        raise ResourceLimitError(f"projector dimension {d}^{n} exceeds cap {dim_cap}")
    preset = resolve_preset(preset)
    tau = threshold_for(alpha, n, preset)
    w, u = hermitian_eigendecomposition(rho)
    w = _clean_eigenvalues(w)
    words = _index_words(d, n)
    included = _word_set(words, _within_windows(words, d, _eigen_windows(w, n, tau)))
    return TypicalProjector(
        eigenvalues=w, basis=u, n=n, alpha=float(alpha), tau=tau, preset=preset, included=included
    )


@dataclass(frozen=True, eq=False)
class ConditionalTypicalProjector:
    """Projector onto jointly typical eigen-index sequences given an input word.

    For each letter class the eigen-index sub-word must be typical for that
    letter's output spectrum, with the class size as the effective block
    length.
    """

    word: tuple
    eigenvalues: dict  # letter -> descending spectrum
    bases: dict  # letter -> eigenvector columns
    taus: dict  # letter -> per-class threshold
    alpha: float
    preset: str
    included: frozenset

    @property
    def dim(self) -> int:
        first = self.word[0]
        return int(self.bases[first].shape[0])

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def rank(self) -> int:
        return len(self.included)

    def includes(self, index_word) -> bool:
        return tuple(index_word) in self.included

    def included_vectors(self) -> np.ndarray:
        return product_columns([self.bases[a] for a in self.word], _sorted_words(self.included, self.n))

    def matrix(self) -> np.ndarray:
        return _product_projector([self.bases[a] for a in self.word], self.included)

    def sandwiched_factor(self, outer: TypicalProjector) -> np.ndarray:
        """Pi V for Pi = outer.matrix() and V = self.included_vectors(), never
        forming Pi.

        Pi is diagonal in the product eigenbasis U^(x)n of the outer state, so
        Pi V = U^(x)n (mask * (U†)^(x)n V), and (U†)^(x)n V is itself the
        product columns of the rotated bases U† B_x.
        """
        if (outer.dim, outer.n) != (self.dim, self.n):
            raise InvalidInputError(
                f"outer projector on {outer.dim}^{outer.n} does not match {self.dim}^{self.n}"
            )
        u = outer.basis
        rotated = {a: u.conj().T @ b for a, b in self.bases.items()}
        cols = product_columns([rotated[a] for a in self.word], _sorted_words(self.included, self.n))
        cols[~_included_mask(outer.included, self.dim, self.n)] = 0.0
        return kron_apply([u] * self.n, cols)


def conditional_typical_projector(
    channel: CQChannel,
    word,
    alpha: float,
    preset: str = PRESET_FIXED,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> ConditionalTypicalProjector:
    """Typical projector of the product state selected by an input word."""
    word = tuple(word)
    if not word:
        raise InvalidInputError("conditioning word is empty")
    n = len(word)
    d = channel.output_dim
    if d**n > dim_cap:
        raise ResourceLimitError(f"projector dimension {d}^{n} exceeds cap {dim_cap}")
    preset = resolve_preset(preset)
    words = _index_words(d, n)
    admitted = np.ones(len(words), dtype=bool)
    eigs, bases, taus = {}, {}, {}
    for a, na in Counter(word).items():
        w, u = hermitian_eigendecomposition(channel.state(a))
        w = _clean_eigenvalues(w)
        tau_a = threshold_for(alpha, na, preset)
        eigs[a], bases[a], taus[a] = w, u, tau_a
        positions = [k for k, b in enumerate(word) if b == a]
        admitted &= _within_windows(words[:, positions], d, _eigen_windows(w, na, tau_a))
    return ConditionalTypicalProjector(
        word=word,
        eigenvalues=eigs,
        bases=bases,
        taus=taus,
        alpha=float(alpha),
        preset=preset,
        included=_word_set(words, admitted),
    )


# ---------------------------------------------------------------------------
# Exact scalar evaluation over letter-count classes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumProjectorStats:
    """Exact projector functionals for an i.i.d. spectrum block."""

    eigenvalues: np.ndarray
    n: int
    tau: float
    capture: float  # tr(rho^(x) n * projector)
    rank: int  # tr(projector)
    lambda_max: float  # largest eigenvalue of the compressed state


def spectrum_projector_stats(eigenvalues, n: int, tau: float) -> SpectrumProjectorStats:
    w = _clean_eigenvalues(np.asarray(eigenvalues, dtype=float))
    windows = _eigen_windows(w, n, tau)
    capture = 0.0
    rank = 0
    lam_max = 0.0
    for counts in _admissible_count_vectors(n, windows):
        m = multinomial_coefficient(n, counts)
        p = _weight_power(w, counts)
        capture += m * p
        rank += m
        if p > lam_max:
            lam_max = p
    return SpectrumProjectorStats(
        eigenvalues=w,
        n=n,
        tau=tau,
        capture=float(capture),
        rank=int(rank),
        lambda_max=float(lam_max),
    )


def state_projector_stats(
    rho, n: int, alpha: float, preset: str = PRESET_FIXED
) -> SpectrumProjectorStats:
    rho = validate_density(rho)
    tau = threshold_for(alpha, n, resolve_preset(preset))
    w, _ = hermitian_eigendecomposition(rho)
    return spectrum_projector_stats(w, n, tau)


@dataclass(frozen=True)
class ConditionalProjectorStats:
    """Per-class and aggregate functionals of a conditional typical projector."""

    word: tuple
    class_sizes: dict
    class_stats: dict  # letter -> SpectrumProjectorStats
    capture: float
    rank: int
    lambda_max: float


def conditional_projector_stats(
    channel: CQChannel, word, alpha: float, preset: str = PRESET_FIXED
) -> ConditionalProjectorStats:
    word = tuple(word)
    if not word:
        raise InvalidInputError("conditioning word is empty")
    preset = resolve_preset(preset)
    class_counts = dict(Counter(word))
    capture, rank, lam_max = 1.0, 1, 1.0
    class_stats = {}
    for a, na in class_counts.items():
        w, _ = hermitian_eigendecomposition(channel.state(a))
        stats = spectrum_projector_stats(w, na, threshold_for(alpha, na, preset))
        class_stats[a] = stats
        capture *= stats.capture
        rank *= stats.rank
        lam_max *= stats.lambda_max
    if rank == 0:
        lam_max = 0.0
        capture = 0.0
    return ConditionalProjectorStats(
        word=word,
        class_sizes=class_counts,
        class_stats=class_stats,
        capture=capture,
        rank=rank,
        lambda_max=lam_max,
    )


@dataclass(frozen=True)
class CrossCaptureStats:
    """Exact overlap of a word's product state with the averaged-state projector."""

    word: tuple
    tau: float
    capture: float
    variance_sum: float  # sum over indices of the count variance
    mean_shift: float  # max index-wise |mean count/n - projector eigenvalue|


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
    word = tuple(word)
    if not word:
        raise InvalidInputError("word is empty")
    n = len(word)
    preset = resolve_preset(preset)
    avg = output_state(channel, dist)
    w, u = hermitian_eigendecomposition(avg)
    w = _clean_eigenvalues(w)
    d = len(w)
    a_size = len(channel.alphabet)
    tau = threshold_for(alpha * math.sqrt(a_size), n, preset)
    windows = _eigen_windows(w, n, tau)

    class_counts = Counter(word)
    diag = {}
    for a in class_counts:
        q = np.real(np.einsum("ij,jk,ki->i", u.conj().T, channel.state(a), u))
        diag[a] = np.clip(q, 0.0, None)

    dist_map = {(0,) * d: 1.0}
    for a, na in class_counts.items():
        q = diag[a]
        terms = []
        for counts in _admissible_count_vectors(na, [(0, na)] * d):
            p = _weight_power(q, counts)
            if p > 0.0:
                terms.append((counts, multinomial_coefficient(na, counts) * p))
        new_map: dict = {}
        for base, pb in dist_map.items():
            for counts, pc in terms:
                key = tuple(b + c for b, c in zip(base, counts))
                new_map[key] = new_map.get(key, 0.0) + pb * pc
        dist_map = new_map

    capture = sum(
        p
        for counts, p in dist_map.items()
        if all(lo <= k <= hi for k, (lo, hi) in zip(counts, windows))
    )
    mean = np.zeros(d)
    var = 0.0
    for a, na in class_counts.items():
        mean += na * diag[a]
        var += float((na * diag[a] * (1.0 - diag[a])).sum())
    shift = float(np.max(np.abs(mean / n - w))) if d else 0.0
    return CrossCaptureStats(
        word=word, tau=tau, capture=capture, variance_sum=var, mean_shift=shift
    )


# ---------------------------------------------------------------------------
# Bound verification reports.
# ---------------------------------------------------------------------------

_EXPONENT_GRACE = 1e-9
_CAPTURE_GRACE = 1e-12


def _log_inverse_sum(eigenvalues: np.ndarray) -> float:
    w = eigenvalues[eigenvalues > 0.0]
    return float(np.log2(1.0 / w).sum()) if w.size else 0.0


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
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "measured": dict(self.measured),
            "reference_bounds": dict(self.reference_bounds),
            "provable_bounds": dict(self.provable_bounds),
            "flags": dict(self.flags),
            "empirical_K": self.empirical_K,
        }


def verify_state_projector_bounds(
    rho, n: int, alpha: float, preset: str = PRESET_FIXED
) -> ProjectorBoundReport:
    """Exact capture/counting/equipartition check for an i.i.d. state block."""
    rho = validate_density(rho)
    preset = resolve_preset(preset)
    d = rho.shape[0]
    tau = threshold_for(alpha, n, preset)
    w, _ = hermitian_eigendecomposition(rho)
    w = _clean_eigenvalues(w)
    stats = spectrum_projector_stats(w, n, tau)
    entropy = spectrum_entropy_bits(w)
    c = _log_inverse_sum(w)

    capture_ref = 1.0 - d / (4.0 * n * alpha**2)
    chebyshev = 1.0 - float((w * (1.0 - w)).sum()) / (n * tau**2)
    quarter = 1.0 - d / (4.0 * n * tau**2)
    counting_exp = n * (entropy + tau * c)
    equip_exp = -n * (entropy - tau * c)

    log_rank = math.log2(stats.rank) if stats.rank > 0 else None
    log_lmax = math.log2(stats.lambda_max) if stats.lambda_max > 0.0 else None
    denom = d * alpha * math.sqrt(n)
    k_count = max(0.0, (log_rank - n * entropy) / denom) if log_rank is not None else 0.0
    k_equip = max(0.0, (log_lmax + n * entropy) / denom) if log_lmax is not None else 0.0

    flags = {
        "reference_capture": bool(stats.capture >= capture_ref - _CAPTURE_GRACE),
        "provable_capture_chebyshev": bool(stats.capture >= chebyshev - _CAPTURE_GRACE),
        "provable_capture_quarter": bool(stats.capture >= quarter - _CAPTURE_GRACE),
        "provable_counting": bool(log_rank is None or log_rank <= counting_exp + _EXPONENT_GRACE),
        "provable_equipartition": bool(
            log_lmax is None or log_lmax <= equip_exp + _EXPONENT_GRACE
        ),
    }
    return ProjectorBoundReport(
        kind="state",
        params={
            "d": d,
            "n": n,
            "alpha": float(alpha),
            "tau": tau,
            "preset": preset,
            "entropy_bits": entropy,
            "log_inverse_sum": c,
        },
        measured={
            "capture": stats.capture,
            "rank": stats.rank,
            "lambda_max": stats.lambda_max,
        },
        reference_bounds={"capture": capture_ref},
        provable_bounds={
            "capture_chebyshev": chebyshev,
            "capture_quarter": quarter,
            "counting_log2": counting_exp,
            "equipartition_log2": equip_exp,
        },
        flags=flags,
        empirical_K=max(k_count, k_equip),
    )


def verify_conditional_projector_bounds(
    channel: CQChannel,
    word,
    dist: ProbabilityDistribution,
    alpha: float,
    preset: str = PRESET_FIXED,
) -> ProjectorBoundReport:
    """Conditional capture/counting/equipartition plus the cross-capture check.

    The conditional bounds use the word's empirical type exactly; the
    reference forms use the supplied input distribution.  Cross capture pairs
    the word's product state with the averaged-state projector at threshold
    parameter alpha*sqrt(|alphabet|).
    """
    word = tuple(word)
    preset = resolve_preset(preset)
    n = len(word)
    d = channel.output_dim
    a_size = len(channel.alphabet)
    cond = conditional_projector_stats(channel, word, alpha, preset)
    cross = cross_capture_stats(channel, word, dist, alpha, preset)

    cheb_sum = 0.0
    quarter_sum = 0.0
    counting_exp = 0.0
    for a, stats in cond.class_stats.items():
        na = cond.class_sizes[a]
        wa = stats.eigenvalues
        cheb_sum += float((wa * (1.0 - wa)).sum()) / (na * stats.tau**2)
        quarter_sum += d / (4.0 * na * stats.tau**2)
        counting_exp += na * (
            spectrum_entropy_bits(wa) + stats.tau * _log_inverse_sum(wa)
        )
    emp_cond_entropy = sum(
        cond.class_sizes[a] * spectrum_entropy_bits(stats.eigenvalues)
        for a, stats in cond.class_stats.items()
    ) / n
    equip_exp = counting_exp - 2.0 * n * emp_cond_entropy

    cond_entropy_true = conditional_entropy(channel, dist)
    capture_ref = 1.0 - a_size * d / (4.0 * n * alpha**2)

    type_counts = Counter(word)
    exact_type = all(
        abs(type_counts.get(a, 0) - n * wgt) <= 1e-9
        for a, wgt in zip(dist.labels, dist.weights)
    )
    cross_provable = (
        1.0 - cross.variance_sum / (n * cross.tau) ** 2 if exact_type else None
    )

    log_rank = math.log2(cond.rank) if cond.rank > 0 else None
    log_lmax = math.log2(cond.lambda_max) if cond.lambda_max > 0.0 else None
    denom = a_size * d * alpha * math.sqrt(n)
    k_count = (
        max(0.0, (log_rank - n * cond_entropy_true) / denom) if log_rank is not None else 0.0
    )
    k_equip = (
        max(0.0, (log_lmax + n * cond_entropy_true) / denom) if log_lmax is not None else 0.0
    )

    flags = {
        "reference_capture": bool(cond.capture >= capture_ref - _CAPTURE_GRACE),
        "provable_capture_chebyshev": bool(cond.capture >= 1.0 - cheb_sum - _CAPTURE_GRACE),
        "provable_capture_quarter": bool(cond.capture >= 1.0 - quarter_sum - _CAPTURE_GRACE),
        "provable_counting": bool(
            log_rank is None or log_rank <= counting_exp + _EXPONENT_GRACE
        ),
        "provable_equipartition": bool(
            log_lmax is None or log_lmax <= equip_exp + _EXPONENT_GRACE
        ),
        "reference_cross_capture": bool(cross.capture >= capture_ref - _CAPTURE_GRACE),
    }
    if cross_provable is not None:
        flags["provable_cross_capture"] = bool(cross.capture >= cross_provable - _CAPTURE_GRACE)
    return ProjectorBoundReport(
        kind="conditional",
        params={
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
        },
        measured={
            "capture": cond.capture,
            "rank": cond.rank,
            "lambda_max": cond.lambda_max,
            "cross_capture": cross.capture,
            "cross_mean_shift": cross.mean_shift,
        },
        reference_bounds={"capture": capture_ref, "cross_capture": capture_ref},
        provable_bounds={
            "capture_chebyshev": 1.0 - cheb_sum,
            "capture_quarter": 1.0 - quarter_sum,
            "counting_log2": counting_exp,
            "equipartition_log2": equip_exp,
            "cross_capture": cross_provable,
        },
        flags=flags,
        empirical_K=max(k_count, k_equip),
    )


def verify_projector_bounds(
    target,
    *,
    n: int | None = None,
    alpha: float = 1.0,
    preset: str = PRESET_FIXED,
    word=None,
    dist: ProbabilityDistribution | None = None,
) -> ProjectorBoundReport:
    """Dispatch to the state or conditional verifier."""
    if isinstance(target, CQChannel):
        if word is None or dist is None:
            raise InvalidInputError("conditional verification needs word= and dist=")
        return verify_conditional_projector_bounds(target, word, dist, alpha, preset)
    if n is None:
        raise InvalidInputError("state verification needs n=")
    return verify_state_projector_bounds(target, n, alpha, preset)
