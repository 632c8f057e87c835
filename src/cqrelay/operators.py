"""Dense linear algebra for finite-dimensional states and measurements.

Operators are plain numpy arrays: float64 when the input has no imaginary
part (a real channel keeps real arithmetic from its letter states to its
decoder), complex128 otherwise.  Entropic quantities are in bits (base-2
logarithms) with the convention 0*log(0) = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

# The three non-geometric tolerances; the two geometric ones live in regions.
#
# Input validation, absolute on entries and eigenvalues of operators whose
# scale is 1 (states and effects) and on probability sums: a Hermitian
# deviation, a negative eigenvalue, a trace or an eigenvalue above 1 that
# misses by more than this fails the check.
VALIDATION_ATOL = 1e-10

# Support and zero cut, relative to the largest value: an eigenvalue at or
# below this times the largest of its spectrum is an exact zero, and an
# entry of a unitary's overlap with a 0/1 pattern (largest entry 1) is off
# the pattern when it misses by more.
SUPPORT_REL_TOL = 1e-10

# Report comparison, relative: a reported value a counts as within a bound b
# when a <= b + REPORT_RTOL * max(1, |a|, |b|) (see _within), so roundoff
# never decides a report flag, a tie or an acceptance.
REPORT_RTOL = 1e-12

# The one memory budget: each path prices its peak from the sizes it knows
# and, before it allocates, refuses a price above this many bytes.
MEMORY_BUDGET = 2 * 2**30


def _require_bytes(nbytes: float, what: str) -> None:
    """Refuse what, priced at nbytes (an int, or a float: inf past its range)."""
    if nbytes > MEMORY_BUDGET:
        size = f"{nbytes / 2**30:.3g} GiB" if nbytes < 2**1000 else "more bytes than a float counts"
        raise ResourceLimitError(f"{what} needs about {size}, above the {MEMORY_BUDGET / 2**30:.3g} GiB memory budget")


def _power(d: int, n: int) -> float:
    """d**n as a float, inf past its range; never formed as an int, so an absurd n prices at once."""
    return math.inf if d > 1 and n * math.log2(d) > 1000 else float(d) ** n


def _words_bytes(letters: int, n: int) -> float:
    """Price of the letters^n words of length n as tuples of labels, with
    the set of them that checks they are distinct: up to 190 + 8n bytes a
    word measured, most of it the set's table as it grows."""
    return _power(letters, n) * (256 + 8 * n)


def _integer_arg(value, what: str, least: int) -> int:
    """value as an int of at least least: an int, a numpy integer or an
    integral float, never a bool.  The library's one integer rule; config
    and channel files read their integers by it too."""
    value = value.item() if isinstance(value, np.generic) else value
    out = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(out, bool) or not isinstance(out, int) or out < least:
        raise InvalidInputError(f"{what} must be an integer >= {least}, got {value!r}")
    return out


def _real_arg(value, what: str, positive: bool = False) -> float:
    """value as a finite float, above 0 with positive: an int, a float or a
    numpy number, never a bool or a string.  The library's one real rule."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out) and (out > 0.0 or not positive):
            return out
    rule = "positive and finite" if positive else "a finite number"
    raise InvalidInputError(f"{what} must be {rule}, got {value!r}")


def _numeric_array(values, name: str, real: bool = False) -> np.ndarray:
    """values as a float64 array, or a complex128 one when it holds complex
    numbers and real is False.  Bools and numbers pass; ragged, string,
    object and, with real, complex input is refused."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in ("biuf" if real else "biufc"):
        raise InvalidInputError(f"{name} must be a rectangular array of {'real ' if real else ''}numbers")
    return arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)


def _within(a: float, b: float) -> bool:
    """a <= b up to REPORT_RTOL, relative to the larger magnitude and at
    least 1: the one comparison of a reported value with its bound."""
    return bool(a <= b + REPORT_RTOL * max(1.0, abs(a), abs(b)))


def _support_cut(w: np.ndarray) -> np.ndarray:
    """SUPPORT_REL_TOL times the largest value of each row of a (..., d)
    array, kept as a (..., 1) column: the values above it are the support."""
    return SUPPORT_REL_TOL * w.max(axis=-1, keepdims=True, initial=0.0)


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
    """Array of shape (..., d, d) with finite entries: float64 for real,
    integer or bool input, complex128 otherwise."""
    m = _numeric_array(mat, name)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        raise InvalidInputError(f"{_batch_label(name, ~finite)[0]} has non-finite entries")
    return m


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(A + A†)/2, used to absorb roundoff before spectral routines."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2


def _hermitian(mat, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(A, A†) for a square, finite and Hermitian A, or a (..., d, d) stack.

    A fails when an entry of |A - A†| exceeds VALIDATION_ATOL; a finite
    difference that overflows is inf and fails without a warning.
    """
    m = as_square_matrix(mat, name)
    mh = m.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        dev = np.abs(m - mh)
    if (dev > VALIDATION_ATOL).any():
        dev = dev.max(axis=(-2, -1))
        bad = _batch_label(name, dev > VALIDATION_ATOL)
        raise InvalidInputError(f"{bad[0]} is not Hermitian (max deviation {dev[bad[1]]:.3e})")
    return m, mh


@dataclass(frozen=True, eq=False)
class CheckedOperator:
    """An operator, or a (..., d, d) stack, that passed validation.

    Made only by checked_operator.  matrix is Hermitian and positive; density
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


def checked_operator(
    mat, name: str, density: bool = False, sub_unital: bool = False, vectors: bool = False
) -> CheckedOperator:
    """The one operator check: mat, one matrix or a (..., d, d) stack, as a
    CheckedOperator that is Hermitian and positive, of unit trace with
    density and <= id with sub_unital.  A failure names the first failing
    matrix of a stack by its index.

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
    m, mh = _hermitian(mat, name)
    # finite entries near the float limit overflow the Hermitian part and
    # the trace; a spectrum holding nan then fails the positivity check
    with np.errstate(over="ignore", invalid="ignore"):
        if vectors:
            w, u = np.linalg.eigh((m + mh) / 2)
        else:
            w, u = np.linalg.eigvalsh((m + mh) / 2), None
        if w.shape[-1]:
            bad = _batch_label(name, ~(w[..., 0] >= -VALIDATION_ATOL))
            if bad is not None:
                low = w[bad[1]][0]
                what = f"negative eigenvalue {low:.3e}" if np.isfinite(low) else "no finite spectrum"
                raise InvalidInputError(f"{bad[0]} has {what}")
            if sub_unital:
                bad = _batch_label(name, w[..., -1] > 1.0 + VALIDATION_ATOL)
                if bad is not None:
                    raise InvalidInputError(
                        f"{bad[0]} exceeds the identity (max eigenvalue {float(w[bad[1]][-1])!r})"
                    )
        if density:
            tr = np.trace(m, axis1=-2, axis2=-1).real
            bad = _batch_label(name, np.abs(tr - 1.0) > VALIDATION_ATOL)
            if bad is not None:
                raise InvalidInputError(f"{bad[0]} has trace {float(tr[bad[1]])!r}, expected 1")
    return CheckedOperator(m, w, u, density, sub_unital, _VALIDATOR)


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

    index_words is an (R, n) integer array; the result is prod(d_k) x R,
    priced with the step before it.  Entries are the same products, taken in
    the same order, as the left-to-right np.kron of the selected columns, so
    they agree bit for bit.
    """
    factors = [np.asarray(f) for f in factors]
    index_words = np.asarray(index_words, dtype=np.intp).reshape(-1, len(factors))
    r, rows = index_words.shape[0], math.prod(f.shape[0] for f in factors)
    out = np.ones((1, r), dtype=np.result_type(float, *factors))
    _require_bytes(2 * rows * r * out.itemsize, f"{rows} x {r} product columns")
    for k, f in enumerate(factors):
        picked = f[:, index_words[:, k]]
        out = (out[:, None, :] * picked[None, :, :]).reshape(out.shape[0] * picked.shape[0], r)
    return out


def partial_trace(mat, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    dims = (d1, d2) with d1*d2 matching the matrix; keep selects the
    surviving factor (1 or 2).
    """
    m = as_square_matrix(mat)
    d1, d2 = (_integer_arg(d, "partial trace dimension", 1) for d in (dims[0], dims[1]))
    if d1 * d2 != m.shape[0]:
        raise InvalidInputError(f"dims {dims} incompatible with matrix of size {m.shape[0]}")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("isjs->ij", t)
    if keep == 2:
        return np.einsum("sisj->ij", t)
    raise InvalidInputError(f"keep must be 1 or 2, got {keep!r}")


def trace_norm(mat):
    """Sum of absolute eigenvalues of a Hermitian matrix, per matrix of a stack."""
    m, mh = _hermitian(mat, "matrix")
    return _per_matrix(np.abs(np.linalg.eigvalsh((m + mh) / 2)).sum(axis=-1))


def trace_pair(a: np.ndarray, b: np.ndarray):
    """Real part of tr(A B), per pair of a stack; intended for Hermitian pairs."""
    return _per_matrix(np.einsum("...ij,...ji->...", a, b).real)


def _spectral_apply(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian part of U diag(values) U†, per matrix of a stack."""
    return hermitian_part((u * values[..., None, :]) @ u.conj().swapaxes(-1, -2))


def matrix_sqrt(mat) -> np.ndarray:
    """Positive square root, per matrix of a stack."""
    op = checked_operator(mat, "matrix_sqrt argument", vectors=True)
    return _spectral_apply(op.vectors, np.sqrt(np.clip(op.spectrum, 0.0, None)))


def _on_support(mat, name: str, fn) -> np.ndarray:
    """U diag(f) U† per matrix of a stack, one eigh validating mat under name.

    f is fn of the eigenvalues above SUPPORT_REL_TOL times the largest and 0
    on the rest; a matrix with no positive eigenvalue maps to zero.
    """
    op = checked_operator(mat, name, vectors=True)
    w = op.spectrum
    cut = _support_cut(w)
    floor = np.where(cut > 0.0, cut, 1.0)
    out = _spectral_apply(op.vectors, np.where(w > cut, fn(np.clip(w, floor, None)), 0.0))
    out[cut[..., 0] <= 0.0] = 0.0
    return out


def pseudo_sqrt_inverse(mat) -> np.ndarray:
    """Inverse square root on the support, per matrix of a stack."""
    return _on_support(mat, "pseudo_sqrt_inverse argument", lambda w: 1.0 / np.sqrt(w))


def support_projector(mat) -> np.ndarray:
    """Projector onto the support, per matrix of a stack."""
    return _on_support(mat, "support_projector argument", np.ones_like)


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
    w = _numeric_array(eigenvalues, "spectrum", real=True)
    h = -np.asarray(_kept_row_sums(w, w > _support_cut(w), _plogp))
    return _per_matrix(np.where(h > 0.0, h, 0.0))


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density operator."""
    return spectrum_entropy_bits(checked_operator(rho, "state", density=True).spectrum)


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
        w = _numeric_array(self.weights, "probability weights", real=True).copy()
        if w.ndim != 1 or w.size != len(labels):
            raise InvalidInputError("alphabet and weights must have matching length")
        # NaN passes both the sign and the sum test, so finiteness comes first
        if not np.isfinite(w).all():
            raise InvalidInputError(f"probability weights must be finite, got {w.tolist()}")
        if np.any(w < 0.0):
            raise InvalidInputError("negative probability weight")
        total = float(w.sum())
        if abs(total - 1.0) > VALIDATION_ATOL:
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

    def power(self, n: int) -> "ProbabilityDistribution":
        """Product distribution over length-n words (tuples of labels), priced
        first (_words_bytes)."""
        n = _integer_arg(n, "word length", 1)
        _require_bytes(_words_bytes(len(self.labels), n), f"the {n}-letter power")
        labels = tuple(itertools.product(self.labels, repeat=n))
        weights = self.weights
        for _ in range(n - 1):
            weights = np.outer(weights, self.weights).ravel()
        return ProbabilityDistribution(labels, weights)


def compositions(n: int, d: int) -> np.ndarray:
    """Every count vector of n over d letters, as the rows of an (R, d) array.

    Rows are in lexicographic order and R = C(n + d - 1, d - 1).  Typical
    sets, count-class tables and distribution grids all enumerate these.
    """
    n, d = _integer_arg(n, "composition total", 0), _integer_arg(d, "composition length", 1)
    counts = np.zeros((1, 0), dtype=np.intp)
    remaining = np.array([n], dtype=np.intp)
    for _ in range(d - 1):
        # expand each row by every count 0..remaining of the next letter
        parent = np.repeat(np.arange(len(remaining)), remaining + 1)
        k = np.arange(len(parent)) - np.repeat(np.cumsum(remaining + 1) - remaining - 1, remaining + 1)
        counts = np.column_stack([counts[parent], k])
        remaining = remaining[parent] - k
    return np.column_stack([counts, remaining])
