"""Dense linear algebra for finite-dimensional states and measurements.

Operators are plain complex numpy arrays.  Entropic quantities are in bits
(base-2 logarithms) with the convention 0*log(0) = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

# Absolute tolerances for operator-level invariants.
HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
PROB_ATOL = 1e-12
SUBUNITAL_ATOL = 1e-10

# Dense realizations (tensor powers, projectors, decoders) refuse to build
# matrices beyond this total dimension.
DEFAULT_DIM_CAP = 4096


def _require_within_cap(d: int, n: int, dim_cap: int, what: str) -> None:
    # 2^n > dim_cap as soon as n reaches the cap's bit length; testing that
    # first keeps d**n from being formed for absurd n
    if (d > 1 and n >= int(dim_cap).bit_length()) or d**n > dim_cap:
        raise ResourceLimitError(f"{what} dimension {d}^{n} exceeds cap {dim_cap}")


def _integral(value) -> int | None:
    """value as an int when it is an integer or an integral float, and not a
    bool; None otherwise.  Config files and channel files read integers by
    this rule."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return None


# Eigenvalues at or below this are treated as exact zeros of a state.
ZERO_EIGENVALUE_TOL = 1e-12


def _batch_label(name: str, flags: np.ndarray) -> tuple[str, tuple] | None:
    """Label and batch index of the first flagged matrix, or None if none is.

    A plain matrix keeps its name; a matrix of a (..., d, d) stack is named
    by its index, e.g. "state[3]".
    """
    if not np.count_nonzero(flags):
        return None
    flags = np.asarray(flags)
    at = tuple(int(i) for i in np.unravel_index(int(np.argmax(flags)), flags.shape))
    return (f"{name}[{', '.join(map(str, at))}]" if at else name), at


def _per_matrix(values: np.ndarray):
    """A per-matrix result: a float for a plain matrix, an array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def as_square_matrix(mat, name: str = "matrix") -> np.ndarray:
    """Complex array of shape (..., d, d) with finite entries."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    bad = _batch_label(name, ~np.isfinite(m).all(axis=(-2, -1)))
    if bad is not None:
        raise InvalidInputError(f"{bad[0]} has non-finite entries")
    return m


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(A + A†)/2, used to absorb roundoff before spectral routines."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2


def hermitian_deviation(mat: np.ndarray):
    """Largest entry of |A - A†|, per matrix of a stack; inf where a finite
    difference overflows, which fails any tolerance without a warning."""
    with np.errstate(over="ignore"):
        dev = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return _per_matrix(dev)


def require_hermitian(mat, atol: float = HERMITIAN_ATOL, name: str = "matrix") -> np.ndarray:
    m = as_square_matrix(mat, name)
    dev = np.asarray(hermitian_deviation(m))
    bad = _batch_label(name, dev > atol)
    if bad is not None:
        raise InvalidInputError(f"{bad[0]} is not Hermitian (max deviation {dev[bad[1]]:.3e})")
    return m


@dataclass(frozen=True, eq=False)
class CheckedOperator:
    """An operator, or a (..., d, d) stack, that passed validation.

    Made only by the validators.  matrix is Hermitian and positive; density
    records that its unit trace was checked and sub_unital its bound <= id.
    spectrum holds the ascending eigenvalues the check read, and vectors the
    matching eigenvector columns when they were asked for, so a routine
    handed the operator decomposes nothing again.  Every array is read-only,
    and indexing a stack gives the checked operator at that index.
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    vectors: np.ndarray | None
    density: bool
    sub_unital: bool
    _made_by: object = field(default=None, repr=False)

    def __post_init__(self):
        if self._made_by is not _VALIDATOR:
            raise InvalidInputError("a CheckedOperator is made by the operator validators only")
        for name in ("matrix", "spectrum", "vectors"):
            arr = getattr(self, name)
            if arr is not None and arr.flags.writeable:
                arr = arr.view()
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    def __getitem__(self, index) -> "CheckedOperator":
        vectors = None if self.vectors is None else self.vectors[index]
        return CheckedOperator(
            self.matrix[index], self.spectrum[index], vectors, self.density, self.sub_unital, _VALIDATOR
        )


_VALIDATOR = object()


def _checked_spectrum(
    mat, name: str, density: bool = False, sub_unital: bool = False, vectors: bool = False
) -> CheckedOperator:
    """Hermitian, positive operators (optionally of unit trace, optionally <= id).

    With vectors, the check reads the spectrum of one eigh and keeps its
    eigenvectors; otherwise of one eigvalsh.  A CheckedOperator that already
    has the asked properties (and vectors) comes back as it is; one that
    lacks any is checked again from its matrix.
    """
    if isinstance(mat, CheckedOperator):
        if (
            (mat.density or not density)
            and (mat.sub_unital or not sub_unital)
            and (mat.vectors is not None or not vectors)
        ):
            return mat
        mat = mat.matrix
    m = require_hermitian(mat, name=name)
    # finite entries near the float limit overflow the Hermitian part and
    # the trace; a spectrum holding nan then fails the positivity check
    with np.errstate(over="ignore", invalid="ignore"):
        if vectors:
            w, u = np.linalg.eigh(hermitian_part(m))
        else:
            w, u = np.linalg.eigvalsh(hermitian_part(m)), None
        if w.shape[-1]:
            bad = _batch_label(name, ~(w[..., 0] >= -PSD_ATOL))
            if bad is not None:
                low = w[bad[1]][0]
                what = f"negative eigenvalue {low:.3e}" if np.isfinite(low) else "no finite spectrum"
                raise InvalidInputError(f"{bad[0]} has {what}")
            if sub_unital:
                bad = _batch_label(name, w[..., -1] > 1.0 + SUBUNITAL_ATOL)
                if bad is not None:
                    raise InvalidInputError(
                        f"{bad[0]} exceeds the identity (max eigenvalue {float(w[bad[1]][-1])!r})"
                    )
        if density:
            tr = np.trace(m, axis1=-2, axis2=-1).real
            bad = _batch_label(name, np.abs(tr - 1.0) > TRACE_ATOL)
            if bad is not None:
                raise InvalidInputError(f"{bad[0]} has trace {float(tr[bad[1]])!r}, expected 1")
    return CheckedOperator(m, w, u, density, sub_unital, _VALIDATOR)


def validate_density(rho, name: str = "state") -> np.ndarray:
    """Check Hermiticity, positivity and unit trace; returns the array.

    Accepts one matrix or a (..., d, d) stack; a failure names the first
    failing matrix of a stack by its index.
    """
    m = as_square_matrix(rho, name)
    _checked_spectrum(m, name, density=True)
    return m


def validate_positive(mat, sub_unital: bool = False, name: str = "operator") -> np.ndarray:
    """Check Hermiticity and positivity; optionally the operator-norm bound <= 1.

    Accepts one matrix or a (..., d, d) stack, like validate_density.
    """
    m = as_square_matrix(mat, name)
    _checked_spectrum(m, name, sub_unital=sub_unital)
    return m


def hermitian_eigendecomposition(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order and matching orthonormal eigenvector columns,
    per matrix of a stack."""
    m = require_hermitian(mat)
    w, u = np.linalg.eigh(hermitian_part(m))
    return w[..., ::-1].copy(), u[..., ::-1].copy()


def tensor_all(mats) -> np.ndarray:
    mats = list(mats)
    if not mats:
        raise InvalidInputError("tensor_all needs at least one factor")
    return reduce(np.kron, mats)


# kron_apply merges runs of consecutive factors into one factor of at most
# this many rows and columns, so that each mode product is a real GEMM rather
# than a batch of d x d products.
FUSED_FACTOR_WIDTH = 32

# Column chunk of the streamed mode products: every temporary of
# kron_column_chunks is N x KRON_CHUNK_COLUMNS, whatever the block's width.
KRON_CHUNK_COLUMNS = 32


def _fused_factors(mats) -> list:
    """mats with each run of consecutive factors merged into its Kronecker
    product, while the merged factor stays within FUSED_FACTOR_WIDTH.

    The merged entries are the products np.kron forms, built by one
    broadcast multiply per merge.
    """
    fused = []
    for m in mats:
        m = np.asarray(m)
        if fused:
            last = fused[-1]
            p, q = last.shape[0] * m.shape[0], last.shape[1] * m.shape[1]
            if max(p, q) <= FUSED_FACTOR_WIDTH:
                fused[-1] = (last[:, None, :, None] * m[None, :, None, :]).reshape(p, q)
                continue
        fused.append(m)
    return fused


def _mode_products(fused: list, block: np.ndarray) -> np.ndarray:
    """Each fused factor as one mode product on block reshaped to (q_1, ..., q_g, K)."""
    cols = block.shape[1]
    done, rest = 1, block.shape[0] * cols
    out = block
    for m in fused:
        p, q = m.shape
        rest //= q
        # modes before this one are already applied (done rows), the rest wait
        out = np.matmul(m, out.reshape(done, q, rest))
        done *= p
    return out.reshape(done, cols)


def kron_column_chunks(mats, block):
    """Iterator of (columns, (mats[0] ⊗ ... ⊗ mats[-1]) @ block[:, columns])
    over consecutive chunks of KRON_CHUNK_COLUMNS columns of block.

    Each product is a new array, so a caller may write it back into the
    columns of block it came from.  The operands are checked and the factors
    fused once, on the call, for all chunks.
    """
    mats = list(mats)
    block = np.asarray(block)
    if not mats:
        raise InvalidInputError("kron_apply needs at least one factor")
    rows = math.prod(m.shape[1] for m in mats)
    if block.ndim != 2 or block.shape[0] != rows:
        raise InvalidInputError(f"block of shape {block.shape} does not match {rows} factor columns")
    fused = _fused_factors(mats)
    chunks = (slice(start, start + KRON_CHUNK_COLUMNS) for start in range(0, block.shape[1], KRON_CHUNK_COLUMNS))
    return ((cols, _mode_products(fused, np.ascontiguousarray(block[:, cols]))) for cols in chunks)


def kron_apply(mats, block) -> np.ndarray:
    """(mats[0] ⊗ ... ⊗ mats[-1]) @ block without forming the Kronecker product.

    Consecutive factors are fused up to FUSED_FACTOR_WIDTH, and each fused
    factor acts as one mode product on the block reshaped to (q_1, ..., q_g, K),
    so a product of n d x d factors costs O(n d N K) time on an N x K block
    instead of N^2 K.  The block is processed in column chunks
    (kron_column_chunks), so no temporary but the result grows with K.
    """
    mats, block = [np.asarray(m) for m in mats], np.asarray(block)
    chunks = kron_column_chunks(mats, block)
    out = np.empty((math.prod(m.shape[0] for m in mats), block.shape[1]), dtype=np.result_type(block, *mats))
    for cols, chunk in chunks:
        out[:, cols] = chunk
    return out


def product_columns(factors, index_words) -> np.ndarray:
    """Columns ⊗_k factors[k][:, j_k], one per index word (j_1, ..., j_n).

    index_words is an (R, n) integer array; the result is prod(d_k) x R.
    Entries are the same products, taken in the same order, as the
    left-to-right np.kron of the selected columns, so they agree bit for bit.
    """
    index_words = np.asarray(index_words, dtype=np.intp).reshape(-1, len(factors))
    r = index_words.shape[0]
    out = np.ones((1, r), dtype=complex)
    for k, f in enumerate(factors):
        picked = np.asarray(f)[:, index_words[:, k]]
        out = (out[:, None, :] * picked[None, :, :]).reshape(out.shape[0] * picked.shape[0], r)
    return out


def partial_trace(mat, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    dims = (d1, d2) with d1*d2 matching the matrix; keep selects the
    surviving factor (1 or 2).
    """
    m = as_square_matrix(mat)
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 < 1 or d2 < 1 or d1 * d2 != m.shape[0]:
        raise InvalidInputError(f"dims {dims} incompatible with matrix of size {m.shape[0]}")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("isjs->ij", t)
    if keep == 2:
        return np.einsum("sisj->ij", t)
    raise InvalidInputError(f"keep must be 1 or 2, got {keep!r}")


def trace_norm(mat):
    """Sum of absolute eigenvalues of a Hermitian matrix, per matrix of a stack."""
    m = require_hermitian(mat)
    return _per_matrix(np.abs(np.linalg.eigvalsh(hermitian_part(m))).sum(axis=-1))


def trace_pair(a: np.ndarray, b: np.ndarray):
    """Real part of tr(A B), per pair of a stack; intended for Hermitian pairs."""
    return _per_matrix(np.einsum("...ij,...ji->...", a, b).real)


def _spectral_apply(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian part of U diag(values) U†, per matrix of a stack."""
    return hermitian_part((u * values[..., None, :]) @ u.conj().swapaxes(-1, -2))


def matrix_sqrt(mat) -> np.ndarray:
    """Positive square root, per matrix of a stack."""
    op = _checked_spectrum(mat, "matrix_sqrt argument", vectors=True)
    return _spectral_apply(op.vectors, np.sqrt(np.clip(op.spectrum, 0.0, None)))


def pseudo_sqrt_inverse(mat, rel_tol: float = 1e-10) -> np.ndarray:
    """Inverse square root on the support, per matrix of a stack.

    Eigenvalues <= rel_tol * max are dropped; a matrix with no positive
    eigenvalue maps to zero.
    """
    op = _checked_spectrum(mat, "pseudo_sqrt_inverse argument", vectors=True)
    w = op.spectrum
    cut = rel_tol * w.max(axis=-1, keepdims=True, initial=0.0)
    floor = np.where(cut > 0.0, cut, 1.0)
    out = _spectral_apply(op.vectors, np.where(w > cut, 1.0 / np.sqrt(np.clip(w, floor, None)), 0.0))
    out[cut[..., 0] <= 0.0] = 0.0
    return out


def support_projector(mat, rel_tol: float = 1e-10) -> np.ndarray:
    op = _checked_spectrum(mat, "support_projector argument", vectors=True)
    w, u = op.spectrum, op.vectors
    wmax = float(w[-1]) if w.size else 0.0
    if wmax <= 0.0:
        return np.zeros_like(op.matrix)
    keep = np.where(w > rel_tol * wmax, 1.0, 0.0)
    return hermitian_part((u * keep) @ u.conj().T)


def _plogp(w: np.ndarray) -> np.ndarray:
    return w * np.log2(w)


def _kept_row_sums(values: np.ndarray, keep: np.ndarray, fn):
    """Per row of a (..., d) array, the sum of fn over the kept entries.

    Rows with the same number of kept entries are compressed together, so
    each row sums a contiguous run of exactly its kept values: the result
    agrees bit for bit with fn(row[keep_row]).sum() on each row alone.
    """
    values = np.asarray(values, dtype=float)
    keep = np.broadcast_to(keep, values.shape)
    flat, flat_keep = values.reshape(-1, values.shape[-1]), keep.reshape(-1, values.shape[-1])
    sizes = flat_keep.sum(axis=-1)
    out = np.zeros(len(flat))
    for k in sorted(set(sizes[sizes > 0].tolist())):
        rows = sizes == k
        out[rows] = fn(flat[rows][flat_keep[rows]].reshape(-1, k)).sum(axis=-1)
    return _per_matrix(out.reshape(values.shape[:-1]))


def spectrum_entropy_bits(eigenvalues: np.ndarray):
    """Shannon entropy in bits of a nonnegative spectrum summing to ~1.

    A (..., d) stack of spectra gives one entropy per row.
    """
    w = np.asarray(eigenvalues, dtype=float)
    h = -np.asarray(_kept_row_sums(w, w > ZERO_EIGENVALUE_TOL, _plogp))
    return _per_matrix(np.where(h > 0.0, h, 0.0))


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density operator."""
    return spectrum_entropy_bits(_checked_spectrum(rho, "state", density=True).spectrum)


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Discrete distribution over an ordered label alphabet."""

    labels: tuple
    weights: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise InvalidInputError("empty alphabet")
        if len(set(labels)) != len(labels):
            raise InvalidInputError("alphabet labels must be distinct")
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size != len(labels):
            raise InvalidInputError("alphabet and weights must have matching length")
        # NaN passes both the sign and the sum test, so finiteness comes first
        if not np.isfinite(w).all():
            raise InvalidInputError(f"probability weights must be finite, got {w.tolist()}")
        if np.any(w < 0.0):
            raise InvalidInputError("negative probability weight")
        total = float(w.sum())
        if abs(total - 1.0) > PROB_ATOL:
            raise InvalidInputError(f"weights sum to {total!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, labels) -> "ProbabilityDistribution":
        labels = tuple(labels)
        if not labels:
            raise InvalidInputError("empty alphabet")
        return cls(labels, np.full(len(labels), 1.0 / len(labels)))

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidInputError(f"label {label!r} not in alphabet") from None

    def weight(self, label) -> float:
        return float(self.weights[self.index(label)])

    def support(self) -> tuple:
        return tuple(a for a, w in zip(self.labels, self.weights) if w > 0.0)

    def power(self, n: int) -> "ProbabilityDistribution":
        """Product distribution over length-n words (tuples of labels)."""
        if n < 1:
            raise InvalidInputError(f"power needs n >= 1, got {n}")
        labels = tuple(itertools.product(self.labels, repeat=n))
        weights = self.weights
        for _ in range(n - 1):
            weights = np.outer(weights, self.weights).ravel()
        return ProbabilityDistribution(labels, weights)


def multinomial_coefficient(n: int, counts) -> int:
    """Exact number of words with the given letter counts."""
    remaining = n
    out = 1
    for k in counts:
        if k < 0 or k > remaining:
            raise InvalidInputError(f"invalid count vector {tuple(counts)} for n={n}")
        out *= math.comb(remaining, k)
        remaining -= k
    if remaining != 0:
        raise InvalidInputError(f"count vector {tuple(counts)} does not sum to {n}")
    return out


def compositions(n: int, d: int) -> np.ndarray:
    """Every count vector of n over d letters, as the rows of an (R, d) array.

    Rows are in lexicographic order and R = C(n + d - 1, d - 1).  Typical
    sets, count-class tables and distribution grids all enumerate these.
    """
    if n < 0 or d < 1:
        raise InvalidInputError(f"compositions need n >= 0 and d >= 1, got n={n}, d={d}")
    counts = np.zeros((1, 0), dtype=np.intp)
    remaining = np.array([n], dtype=np.intp)
    for _ in range(d - 1):
        # expand each row by every count 0..remaining of the next letter
        parent = np.repeat(np.arange(len(remaining)), remaining + 1)
        k = np.arange(len(parent)) - np.repeat(np.cumsum(remaining + 1) - remaining - 1, remaining + 1)
        counts = np.column_stack([counts[parent], k])
        remaining = remaining[parent] - k
    return np.column_stack([counts, remaining])
