"""Random codebooks, square-root-measurement decoding, and end-to-end runs.

The decoder construction sandwiches each word's conditional typical projector
between averaged-state projectors and square-root normalizes the resulting
detection operators over the messages that share a side-information index.
build_square_root_decoder is the one route from a codebook to those groups,
for the library and for both schemes of simulate: it settles each
receiver's path once, and its decoder builds a group only when one is read
and holds none, so the error pass keeps one group alive at a time.
A normalized group is read through what it answers: its outcome table
tr(Λ_k rho_c) and detection table tr(D'_k rho_c) over word states, its size
and its sub-POVM margin.  Detection operators are held only as their N x K
factors F.  The normalization runs on the K x K Gram matrix G = F†F of each
group, and the group keeps G^{+1/2}, not the normalized factors
H = F G^{+1/2}: its outcome table forms each H block once and frees it
before the next; the error tables, the decoding and the modular-sum scheme
read that one table, so a run forms each H block once.  Product operators (the
averaged-state projector, word states) are held as their n single-letter
factors and applied as fused mode products, one column chunk at a time, so
no N x N array is formed and no temporary grows with K.  All error figures
are exact traces; sampling enters only through codebook generation.

When a receiver's letter states are all diagonal in the eigenbasis of its
averaged-state projector (up to order and phases), every operator of the
construction is diagonal in that one product basis, and the receiver's
groups are _DiagonalGroup: length-N diagonals in place of N x K factors and
K x K Gram matrices.  The path is chosen per receiver (_diagonal_orders);
the factor path stays the oracle, which tests reach by patching
_diagonal_orders to find no diagonal basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .channels import BroadcastCQChannel, CQChannel, holevo_chi
from .errors import ExpurgationError, InvalidInputError
from .operators import (
    KRON_CHUNK_COLUMNS,
    SUPPORT_REL_TOL,
    ProbabilityDistribution,
    _integer_arg,
    _power,
    _real_arg,
    _require_bytes,
    _within,
    hermitian_part,
    kron_apply,
    kron_column_chunks,
    product_columns,
    pseudo_sqrt_inverse,
)
from .typicality import (
    PRESET_FIXED,
    TypicalProjector,
    TypicalSet,
    _eigenpairs,
    _mask_words,
    _projector,
    _projector_bytes,
    _projector_rank,
    averaged_state_projector,
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

    def word(self, m1: int, m2: int) -> tuple:
        try:
            return self.words[(m1, m2)]
        except KeyError:
            raise InvalidInputError(f"message pair ({m1}, {m2}) outside the codebook") from None


def sample_codebook(
    dist: ProbabilityDistribution,
    n: int,
    m1_size: int,
    m2_size: int,
    delta_code: float = 0.5,
    seed: int = 0,
) -> Codebook:
    """Draw words i.i.d. from the input distribution, kept only when typical."""
    m1_size, m2_size = (_integer_arg(size, "message set size", 1) for size in (m1_size, m2_size))
    seed = _integer_arg(seed, "seed", 0)
    tset = TypicalSet(dist, n, delta_code)
    rng = np.random.default_rng(seed)
    words = {}
    for m1 in range(m1_size):
        for m2 in range(m2_size):
            words[(m1, m2)] = tset.sample(rng, 100_000)
    return Codebook(n=n, m1_size=m1_size, m2_size=m2_size, words=words, dist=dist)


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
    factors) and column k for block k.  Each block is read once, so blocks
    from a lazy map are formed one at a time and freed before the next."""
    columns = list(map(lambda block: [_factor_trace(block, state) for state in states], blocks))
    return np.array(columns, dtype=float).reshape(len(columns), len(states)).T


def _averaged_projectors(bc: BroadcastCQChannel, dist, n: int, alpha, preset) -> dict:
    """receiver -> typical projector of its n-fold averaged output state.

    They depend on the input distribution and not on the codebook, so a run
    builds them once for all its seeds.
    """
    return {r: averaged_state_projector(bc.marginal(r), dist, n, alpha, preset) for r in (1, 2)}


def _letter_eigenpairs(channel: CQChannel) -> dict:
    """letter -> its state's descending spectrum and eigenvector columns."""
    return {a: _eigenpairs(channel.state(a), "channel state") for a in channel.alphabet}


def _word_projectors(letters: dict, words, alpha, preset, read) -> list:
    """Per word, read(P_w) of its conditional typical projector P_w, built
    from the letters' eigenpairs; a repeated word shares its result."""
    out = {}
    for w in words:
        if w not in out:
            out[w] = read(_projector(letters, w, alpha, preset))
    return [out[w] for w in words]


# The Gram matrix and the normalized factors are built from row panels of the
# detection factors, so their temporaries have PANEL_ROWS rows whatever N is.
PANEL_ROWS = 1024


def _row_panels(rows: int):
    return (slice(start, start + PANEL_ROWS) for start in range(0, rows, PANEL_ROWS))


@dataclass(frozen=True, eq=False)
class _NormalizedGroup:
    """Square-root normalization of one detection-operator group, read
    through its tables.

    A group of M operators answers outcomes(states), the (C, M) table
    tr(Λ_k rho_c), and tables(states), that table with the table
    tr(D'_k rho_c) next to it, for word states given as their lists of
    tensor factors; len(group) is M, factor(i)
    is the normalized factor H_i with Λ_i = H_i H_i†, and margin is the
    largest eigenvalue of (sum of normalized ops - identity): a sub-POVM
    keeps it <= ~0 and an all-zero group gives -1.

    With F = [F_1 ... F_M] and its Gram matrix G = F†F (K x K), the
    normalized factors are H = F G^{+1/2}, so that H_i H_i† = S^{-1/2} D_i S^{-1/2}
    for S = sum_i D_i: FF† and G share their nonzero spectrum, so the pseudo
    inverse keeps the same eigenvalues.  The group holds the F_i (the
    detection factors themselves, not a copy), inv_root = G^{+1/2} and the
    column offsets of the F_i in F, and forms H_i only when it is read.
    """

    factors: tuple
    inv_root: np.ndarray
    offsets: tuple  # F_i is columns offsets[i]:offsets[i + 1] of F
    margin: float

    def __len__(self) -> int:
        return len(self.factors)

    def outcomes(self, states) -> np.ndarray:
        """The (C, M) table tr(Λ_k rho_c); each H_k is formed once and freed
        before the next is formed."""
        return _trace_table(map(self.factor, range(len(self))), states)

    def tables(self, states) -> tuple:
        """outcomes(states) and the (C, M) table tr(D'_k rho_c), read from the held F_k."""
        return self.outcomes(states), _trace_table(self.factors, states)

    def factor(self, i: int) -> np.ndarray:
        """H_i = sum_k F_k G^{+1/2}[block k, block i], formed one row panel at a time."""
        cols = slice(self.offsets[i], self.offsets[i + 1])
        weights = [self.inv_root[lo:hi, cols] for lo, hi in zip(self.offsets, self.offsets[1:])]
        shape = (self.factors[i].shape[0], cols.stop - cols.start)
        out = np.zeros(shape, dtype=np.result_type(self.inv_root, *self.factors))
        for panel in _row_panels(out.shape[0]):
            for f, w in zip(self.factors, weights):
                out[panel] += f[panel] @ w
        return out


def _gram(factors, offsets) -> np.ndarray:
    """G = F†F for F = [F_1 ... F_M], block by block and one row panel at a
    time: G_ij = F_i† F_j for i <= j, summed over the panels, and G_ji = G_ij†."""
    gram = np.zeros((offsets[-1], offsets[-1]), dtype=np.result_type(*factors))
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
        return _NormalizedGroup(factors, np.zeros((0, 0), dtype=np.result_type(float, *factors)), offsets, -1.0)
    gram = _gram(factors, offsets)
    inv_root = pseudo_sqrt_inverse(gram)
    margin = float(np.linalg.eigvalsh(hermitian_part(inv_root @ gram @ inv_root))[-1]) - 1.0
    return _NormalizedGroup(factors, inv_root, offsets, margin)


# ---------------------------------------------------------------------------
# The exact commuting reduction: groups of jointly diagonal operators.
# ---------------------------------------------------------------------------

def _diagonal_orders(letters: dict, proj: TypicalProjector) -> dict | None:
    """letter -> the letter's eigen-index at each index of u, the single-letter
    basis of the averaged-state projector proj; None unless every letter's
    eigenbasis u_a is u reordered and rephased.

    letters maps each letter to the eigenpairs _letter_eigenpairs returns,
    the ones the conditional projectors read; u_a is their eigenbasis.  It
    qualifies when u† u_a is a signed or phased permutation: every entry of
    |u† u_a| within SUPPORT_REL_TOL of the permutation's 0/1 pattern (the
    entries' largest possible value is 1).  Then Pi, every P_w and every
    word state are diagonal in U = u^(x)n.  Commuting letter states are not enough: for
    a degenerate averaged state, eigh may return a u that is not the
    letters' basis.  The off-pattern entries the diagonal path drops are of
    first order in that tolerance, and each enters a trace between diagonal
    operators, where its first-order term vanishes; the tables move at
    second order.
    """
    u = proj.bases[0]
    d = u.shape[0]
    orders = {}
    for a, (_, vectors) in letters.items():
        overlap = np.abs(u.conj().T @ vectors)
        position = overlap.argmax(axis=0)  # the index of u that eigenvector j sits at
        pattern = np.zeros((d, d))
        pattern[position, np.arange(d)] = 1.0
        # u is unitary, so a pattern with two 1s in one row fails this too
        if np.abs(overlap - pattern).max() > SUPPORT_REL_TOL:
            return None
        orders[a] = np.argsort(position)
    return orders


def _basis_diagonal(basis: np.ndarray, factor) -> np.ndarray:
    """diag(V† rho V) for a tensor factor rho on m positions and V = basis^(x)m;
    for m > 1 by mode products, V† rho and then column chunks of
    (V† rho V)^T = V^T (V† rho)^T, so V and V† rho V are never formed."""
    d, size = basis.shape[0], factor.shape[0]
    m = 1
    while d > 1 and d**m < size:
        m += 1
    if d**m != size:
        raise InvalidInputError(f"a {size}-dimensional state factor is no tensor power of {d} dimensions")
    if m == 1:
        return np.einsum("ix,ix->x", basis.conj(), factor @ basis).real
    rotated = kron_apply([basis.conj().T] * m, factor)
    out = np.empty(size)
    for cols, product in kron_column_chunks([basis.T] * m, rotated.T):
        out[cols] = product[cols].diagonal().real
    return out


@dataclass(frozen=True, eq=False)
class _DiagonalGroup:
    """A decoding group whose operators are diagonal in one product basis
    U = basis^(x)n, answering _NormalizedGroup's contract from length-N
    vectors.

    Row k of dprime is D'_k = pi * p_w, the 0/1 diagonal of Pi P_w Pi, and
    s = sum_k D'_k counts the rows that flag each index, in the smallest
    unsigned type that holds M.  The diagonal of
    Lambda_k = S^{-1/2} D'_k S^{-1/2} is lambda_k = D'_k / s on supp(s) and
    0 off it, read from those two when a table or a factor needs it.  A
    state enters the traces only through the diagonal of U† rho U, so each
    table is one (C x N)(N x M) product.  margin is the largest
    sum_k lambda_k - 1 over supp(s), and -1 when s is 0.
    """

    basis: np.ndarray  # d x d, the averaged projector's single-letter eigenbasis
    n: int
    dprime: np.ndarray  # (M, N) bool
    s: np.ndarray  # (N,) unsigned int
    margin: float

    def __len__(self) -> int:
        return self.dprime.shape[0]

    def outcomes(self, states) -> np.ndarray:
        """The (C, M) table tr(Lambda_k rho_c)."""
        return self._diagonals(states) @ _lambdas(self.dprime, self.s).T

    def tables(self, states) -> tuple:
        """outcomes(states) and the (C, M) table tr(D'_k rho_c), both read
        from one pass over the states' diagonals."""
        diagonals = self._diagonals(states)
        # one (C x N)(N x M) product per table: a product per row would sum
        # in another order and move the table in its last bits
        return diagonals @ _lambdas(self.dprime, self.s).T, diagonals @ self.dprime.T.astype(float)

    def factor(self, i: int) -> np.ndarray:
        """H_i = U[:, supp] diag(sqrt lambda_i[supp]) over the support of
        lambda_i, which is that of D'_i, so that Lambda_i = H_i H_i†."""
        keep = self.dprime[i]
        words = _mask_words(keep, self.basis.shape[0], self.n)
        return product_columns([self.basis] * self.n, words) * np.sqrt(1.0 / self.s[keep])

    def _diagonals(self, states) -> np.ndarray:
        """(C, N): the diagonal of U† rho_c U for each state's list of tensor factors."""
        out = np.empty((len(states), self.dprime.shape[1]))
        for row, state in zip(out, states):
            diagonal = reduce(np.kron, [_basis_diagonal(self.basis, f) for f in state])
            if diagonal.shape != row.shape:
                raise InvalidInputError(f"a state does not match the group's {row.size}-dimensional space")
            row[:] = diagonal
        return out


def _lambdas(dprime: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (M, N) table of lambda_k = D'_k / s on supp(s), 0 off it."""
    return np.divide(dprime, s, out=np.zeros(dprime.shape), where=s > 0)


def _diagonal_group(proj: TypicalProjector, dprimes) -> _DiagonalGroup:
    """Square-root normalization of one group of diagonal detection operators;
    see _DiagonalGroup."""
    dprime = np.array(dprimes, dtype=bool).reshape(len(dprimes), -1)
    s = dprime.sum(axis=0, dtype=np.min_scalar_type(len(dprime)))
    support = s > 0
    margin = float(_lambdas(dprime, s).sum(axis=0)[support].max()) - 1.0 if support.any() else -1.0
    return _DiagonalGroup(proj.bases[0], proj.n, dprime, s, margin)


@dataclass(frozen=True, eq=False)
class SquareRootDecoder:
    """Square-root decoding operators Λ = H H† of each side-information group;
    receiver r resolves its own message index given the other index as side
    information.

    The decoder holds the codebook and channel it was built from, and no
    group: builders maps each receiver to its words -> decoding group, and
    group(receiver, known) builds that side-information group anew on each
    call.  Every caller reads a group through its tables, its length and its
    margin, and lets it go before it asks for the next; a group's factor(i)
    is its one read of a single normalized factor.
    """

    codebook: Codebook
    bc: BroadcastCQChannel
    builders: dict  # receiver -> (words -> their decoding group)

    @property
    def m1_size(self) -> int:
        return self.codebook.m1_size

    @property
    def m2_size(self) -> int:
        return self.codebook.m2_size

    def group(self, receiver: int, known: int):
        """The decoding group of the receiver's side-information group whose
        known index is known; receiver 1 knows m2, receiver 2 knows m1."""
        receiver, known = _integer_arg(receiver, "receiver", 1), _integer_arg(known, "known index", 0)
        pairs = _side_info_groups(receiver, self.m1_size, self.m2_size).get(known) if receiver in (1, 2) else None
        if pairs is None:
            raise InvalidInputError(f"receiver {receiver} has no side-information group for known index {known}")
        return self.builders[receiver]([self.codebook.words[p] for p in pairs])


def _side_info_groups(receiver: int, m1_size: int, m2_size: int) -> dict:
    """Every side-information group of the receiver: its known index -> the
    message pairs that share it, ordered by the resolved index.

    Receiver 1 knows m2 and resolves m1; receiver 2 the reverse.
    """
    if receiver == 1:
        return {m2: [(m1, m2) for m1 in range(m1_size)] for m2 in range(m2_size)}
    return {m1: [(m1, m2) for m2 in range(m2_size)] for m1 in range(m1_size)}


def _group_builder(channel: CQChannel, proj: TypicalProjector, alpha, preset):
    """words -> their square-root normalized decoding group on the receiver's
    channel.  The letters' eigenpairs and the path are settled here, once
    per receiver.

    When _diagonal_orders finds the letters diagonal in proj's basis, the
    eigenpairs are taken in its order, so that index x of U holds, at
    position k, eigenpair x_k of letter w_k: P_w then has its mask in U's
    order, and each D' = Pi P_w Pi of a _DiagonalGroup is that mask cut by
    Pi's own.  Otherwise each word's detection factor F = Pi V, with V the
    included vectors of P_w, is N x rank with D' = F F† (Pi itself is never
    formed), and _normalize_group normalizes the group's factors.
    """
    letters = _letter_eigenpairs(channel)
    orders = _diagonal_orders(letters, proj)
    dim = proj.mask.size
    if orders is None:
        itemsize = np.result_type(float, proj.bases[0], *(u for _, u in letters.values())).itemsize
        price = lambda words: _factor_group_bytes(
            dim, [_projector_rank(letters, w, alpha, preset) for w in words], itemsize
        )
        build = lambda words: _normalize_group(
            _word_projectors(letters, words, alpha, preset, lambda cond: cond.sandwiched_factor(proj))
        )
    else:
        letters = {a: (values[orders[a]], vectors[:, orders[a]]) for a, (values, vectors) in letters.items()}
        price = lambda words: _diagonal_group_bytes(dim, len(words))
        build = lambda words: _diagonal_group(
            proj, _word_projectors(letters, words, alpha, preset, lambda cond: proj.mask & cond.mask)
        )

    def group(words):
        _require_bytes(price(words), f"decoding group of {len(words)} words")
        return build(words)

    return group


# Bytes of the Python objects and small arrays each word of a group adds.
_WORD_OVERHEAD_BYTES = 2**16


def _diagonal_group_bytes(dim: float, m: int) -> float:
    """Peak of a diagonal group of m words on dim dimensions with its tables
    over its m words' states: the (m, dim) 0/1 rows twice and the float64
    lambdas; s, the (m, dim) state diagonals, their Kronecker steps and Pi's
    mask."""
    return dim * (18 * m + 17 + np.min_scalar_type(m).itemsize) + m * _WORD_OVERHEAD_BYTES


def _factor_group_bytes(dim: float, ranks, itemsize: int) -> float:
    """Peak of a factor-path group whose words' conditional ranks are ranks:
    the N x K factors, K the sum of the ranks, with 1.5 widest factors (its
    last product step, or its H_i) and three mode-product chunks beside
    them; and six K x K arrays while the Gram matrix is decomposed."""
    k, widest = sum(ranks), max(ranks, default=0)
    columns = k + 1.5 * widest + 3 * min(widest, KRON_CHUNK_COLUMNS)
    return itemsize * (dim * columns + 6 * k * k) + len(ranks) * _WORD_OVERHEAD_BYTES


def build_square_root_decoder(
    codebook: Codebook,
    bc: BroadcastCQChannel,
    alpha: float = 1.0,
    preset: str = PRESET_FIXED,
    projectors: dict | None = None,
) -> SquareRootDecoder:
    """The square-root decoder of the codebook on the broadcast channel; each
    receiver's path is chosen here (see _group_builder), and no group is
    built until it is read.  A group is priced as it is built, with its
    tables over its own words' states, and refused above the memory budget.

    projectors maps each receiver to the averaged-state projector of
    codebook.dist at the same n, alpha and preset; it is built here when not
    given, and a caller that realizes several codebooks passes it in.
    """
    preset = resolve_preset(preset)
    if projectors is None:
        projectors = _averaged_projectors(bc, codebook.dist, codebook.n, alpha, preset)
    builders = {r: _group_builder(bc.marginal(r), projectors[r], alpha, preset) for r in (1, 2)}
    return SquareRootDecoder(codebook, bc, builders)


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
    # receiver -> {known index: its group's sub-POVM margin}; not in as_dict
    margins: dict = field(default_factory=dict)

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


def average_errors(decoder: SquareRootDecoder) -> ErrorReport:
    """Exact error tables of the decoder's own codebook on its own channel,
    with the normalization-removal bound (2x miss + 4x collision mass of the
    detection operators) checked per pair, all read from two tables per
    group: its outcomes tr(Λ_k W(word)) and its detections tr(D'_k W(word)).
    Each group is built, read for its tables and its margin, and dropped
    before the next is built."""
    codebook = decoder.codebook
    first, coll, bounds, outcomes, margins = ({1: {}, 2: {}} for _ in range(5))
    ok = True
    for receiver in (1, 2):
        channel = decoder.bc.marginal(receiver)
        for known, pairs in _side_info_groups(receiver, codebook.m1_size, codebook.m2_size).items():
            states = [_word_factors(channel, codebook.words[p]) for p in pairs]
            group = decoder.group(receiver, known)
            (decided, detected), margins[receiver][known] = group.tables(states), group.margin
            # freed here, so the next group is built with none other alive
            del group
            for index, pair in enumerate(pairs):
                outcomes[receiver][pair] = tuple(decided[index].tolist())
                first[receiver][pair] = err = _clamp_nonnegative(1.0 - decided[index, index])
                row = detected[index].tolist()
                coll[receiver][pair] = mass = sum(_clamp_nonnegative(t) for k, t in enumerate(row) if k != index)
                miss = _clamp_nonnegative(1.0 - row[index])
                bounds[receiver][pair] = 2.0 * miss + 4.0 * mass
                if not _within(err, bounds[receiver][pair]):
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
        margins=margins,
    )


def second_kind_collision_check(
    dist: ProbabilityDistribution,
    bc: BroadcastCQChannel,
    n: int,
    alpha: float,
    preset: str = PRESET_FIXED,
) -> dict:
    """Collision mass of receiver 2's detection operators on wrong-word states.

    Evaluates E[tr(W2(X) D'(X'))] exactly over independent words X, X' of the
    typical set at sample_codebook's delta 0.5, one type class at a time, and
    compares it against the rigorous equipartition-times-rank budget, reported
    both directly and as the exponent offset eps_slack with
    budget = 2^(-n (chi2 - eps_slack)); a zero budget has no such offset and
    reports eps_slack as None.  "trials" reports the number of word pairs
    covered.  It is priced first: the averaged projector, three widest
    detection factors of a typical word and the column chunks of its traces
    (the typical mixture's partial sums).
    """
    preset = resolve_preset(preset)
    channel = bc.marginal(2)
    tset = TypicalSet(dist, n, 0.5)
    classes = tset.type_classes()
    typical_mass = tset.probability()
    if typical_mass <= 0.0:
        raise InvalidInputError("typical set has zero mass; no word pair to average over")
    letters = _letter_eigenpairs(channel)

    def word_of(counts):
        return tuple(a for a, k in zip(dist.labels, counts) for _ in range(k))

    # a word's conditional rank depends on its type only
    widest = max(_projector_rank(letters, word_of(counts), alpha, preset) for counts, _ in classes)
    itemsize = np.result_type(float, *(channel.state(a) for a in channel.alphabet)).itemsize
    columns = 3 * widest + KRON_CHUNK_COLUMNS * (tset.mixture_sums() + 4)
    d = channel.output_dim
    _require_bytes(_projector_bytes(d, n) + _power(d, n) * itemsize * columns, f"second-kind check for n={n}")
    proj = averaged_state_projector(channel, dist, n, alpha, preset)
    lam_max = spectrum_projector_stats(proj.eigenvalues[0], n, proj.taus[0]).lambda_max
    chi2 = holevo_chi(channel, dist)
    total = mean_rank = 0.0
    # E[tr(W(X) D'(X'))] = sum_w p(w) tr(F_w† rho_mix F_w) for independent
    # X, X'.  rho_mix and the averaged projector commute with permutations
    # of the positions and D'(pi w) = P_pi D'(w) P_pi†, so the trace only
    # depends on the type of w: one word per type class stands for all.
    # The mixture is applied to KRON_CHUNK_COLUMNS columns of F_w at a
    # time, so its per-count partial sums never grow with the rank.
    for counts, mass in classes:
        p = mass / typical_mass
        if p == 0.0:
            continue
        cond = _projector(letters, word_of(counts), alpha, preset)
        f = cond.sandwiched_factor(proj)
        trace = 0.0
        for start in range(0, f.shape[1], KRON_CHUNK_COLUMNS):
            cols = np.ascontiguousarray(f[:, start : start + KRON_CHUNK_COLUMNS])
            trace += np.vdot(cols, tset.mixture_apply(channel, cols) / typical_mass).real
        total += p * float(trace)
        mean_rank += p * cond.rank
    estimate = _clamp_nonnegative(total)
    budget = lam_max * mean_rank / typical_mass
    eps_slack = float(chi2 + math.log2(budget) / n) if budget > 0.0 else None
    return {
        "n": n,
        "alpha": float(alpha),
        "preset": preset,
        "exact": True,
        "trials": tset.size() ** 2,
        "estimate": float(estimate),
        "budget": float(budget),
        "within_budget": _within(estimate, budget),
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
    within operators.REPORT_RTOL of the cutoff, the ceil(size/2)-th
    smallest, are tied (operators._within both ways), and ties go to the
    lower key, so roundoff cannot order equal averages."""
    keep = math.ceil(len(averages) / 2)
    cutoff = sorted(averages.values())[keep - 1]
    below = [k for k, v in averages.items() if not _within(cutoff, v)]
    tied = sorted(k for k, v in averages.items() if _within(cutoff, v) and _within(v, cutoff))
    return tuple(sorted(below + tied[: keep - len(below)]))


def expurgate(errors: ErrorReport, delta: float) -> ExpurgationResult:
    """Keep the better half of each message set when the global averages allow it.

    Selection keeps the ceil(size/2) indices with the smallest averaged error
    (averages within operators.REPORT_RTOL of the cutoff tie, and ties go to
    the lower index); a global average <= delta pins each selected average
    at <= 2*delta and each restricted average at <= 4*delta.  Every
    comparison with delta is operators._within, so an average equal to
    delta in exact arithmetic passes whichever way it rounds.
    """
    delta = _real_arg(delta, "delta", positive=True)
    overall = errors.overall
    if not (_within(overall[1], delta) and _within(overall[2], delta)):
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
        delta=delta,
        selection_error_by_m2=selection[1],
        selection_error_by_m1=selection[2],
        final_error_by_m2=final[1],
        final_error_by_m1=final[2],
        within_two_delta=all(_within(v, 2.0 * delta) for s in selection.values() for v in s.values()),
        within_four_delta=all(_within(v, 4.0 * delta) for f in final.values() for v in f.values()),
    )


def decode_with_side_info(decoder: SquareRootDecoder, receiver: int, known_message: int, state) -> int:
    """Apply one side-information decoding group to an output state.

    Receiver 1 knows m2 and resolves m1; receiver 2 the reverse.  The state
    is a dense N x N array or the list of its tensor factors.  Outcome
    probabilities are exact traces, clamped at 0, and the most likely
    message is returned.  Each call builds the whole side-information group;
    to decode many states against one group, read
    decoder.group(receiver, known_message).outcomes(states) once.
    """
    state = _state_factors(state)
    return _decide(decoder.group(receiver, known_message).outcomes([state])[0])


def _state_factors(state) -> list:
    """A dense state or a list of tensor factors, as a list of square 2-D arrays."""
    if isinstance(state, np.ndarray) and state.ndim == 2:
        return [state]
    try:
        factors = [np.asarray(f) for f in state]
    except TypeError:
        factors = []
    if not factors or any(f.ndim != 2 or f.shape[0] != f.shape[1] for f in factors):
        raise InvalidInputError("state must be a square matrix or a list of square tensor factors")
    return factors


def _decide(probs) -> int:
    """decode_with_side_info's decision on one row of outcome probabilities:
    the most likely message, after negative roundoff is clamped to 0."""
    return int(np.argmax([_clamp_nonnegative(p) for p in probs]))


def modular_sum_encode(m1: int, m2: int, size: int) -> int:
    """Relay's common message for the sum-forwarding scheme."""
    size = _integer_arg(size, "message set size", 1)
    m1, m2 = (_integer_arg(m, "message", 0) for m in (m1, m2))
    if m1 >= size or m2 >= size:
        raise InvalidInputError(f"messages ({m1}, {m2}) outside range(0, {size})")
    return (m1 + m2) % size


def modular_sum_decode(common: int, known: int, size: int) -> int:
    """Recover the partner's message from the common message and one's own."""
    size = _integer_arg(size, "message set size", 1)
    common, known = (_integer_arg(m, "message", 0) for m in (common, known))
    if common >= size or known >= size:
        raise InvalidInputError(f"values ({common}, {known}) outside range(0, {size})")
    return (common - known) % size


# ---------------------------------------------------------------------------
# End-to-end broadcast-phase simulation.
# ---------------------------------------------------------------------------

_SCHEMES = ("proof-construction", "modular-sum")


def _config_reals(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(_real_arg(x, what) for x in value)


def _config_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise InvalidInputError(f"{what} must be a string, got {value!r}")
    return value


# config key -> (SimConfig field, check, its bound): the check reads
# (value, what, *bound), the least integer or whether a real must be
# positive; a field whose default is None may stay None
_CONFIG_KEYS = {
    "n": ("n", _integer_arg, 1),
    "alpha": ("alpha", _real_arg),
    "preset": ("preset", _config_string),
    "delta_code": ("delta_code", _real_arg),
    "epsilon": ("epsilon", _real_arg),
    "M1": ("m1_size", _integer_arg, 1),
    "M2": ("m2_size", _integer_arg, 1),
    "seed": ("seed", _integer_arg, 0),
    "scheme": ("scheme", _config_string),
    "max_seed_attempts": ("max_seed_attempts", _integer_arg, 1),
    "delta": ("delta", _real_arg, True),
    "dist": ("dist", _config_reals),
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

    def __post_init__(self):
        for key, (field, check, *bound) in _CONFIG_KEYS.items():
            value = getattr(self, field)
            if value is not None or self.__dataclass_fields__[field].default is not None:
                setattr(self, field, check(value, f"config {key!r}", *bound))
        self.preset = resolve_preset(self.preset)
        if self.scheme not in _SCHEMES:
            raise InvalidInputError(f"unknown scheme {self.scheme!r}; pick from {_SCHEMES}")

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

    An exponent within operators.REPORT_RTOL of an integer (operators._within
    both ways) counts as that integer, so that roundoff in the default
    epsilon cannot take a message set below the size 2 it was chosen for.
    The bound is checked on the exponent, so a size beyond float range is
    never formed.
    """
    exponent = n * (chi - 2.0 * eps)
    if math.isfinite(exponent) and _within(exponent, round(exponent)) and _within(round(exponent), exponent):
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
    """Each receiver's detection dimension d_r^n, formed only after both
    averaged projectors are priced, before anything is sized or sampled."""
    d = [bc.marginal(receiver).output_dim for receiver in (1, 2)]
    _require_bytes(sum(_projector_bytes(dr, config.n) for dr in d), f"averaged projectors for n={config.n}")
    return d[0] ** config.n, d[1] ** config.n


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
    first seed whose worst average error is <= config.delta, up to
    operators._within as expurgate allows it, with its realization, or (None,
    last realization) after marking the report threshold-not-met.
    """
    for attempt in range(config.max_seed_attempts):
        seed = config.seed + attempt
        worst, realization = realize(seed)
        if _within(worst, config.delta):
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
    projectors = _averaged_projectors(bc, dist, config.n, config.alpha, config.preset)

    def realize(seed):
        cb = sample_codebook(dist, config.n, m1_size, m2_size, config.delta_code, seed)
        decoder = build_square_root_decoder(cb, bc, config.alpha, config.preset, projectors)
        errs = average_errors(decoder)
        return max(errs.overall.values()), errs

    seed_used, errs = _first_passing_seed(config, realize, report)
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
        subpovm_margins={f"receiver{r}": _keyed(m) for r, m in errs.margins.items()},
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
    projectors = _averaged_projectors(bc, dist, config.n, config.alpha, config.preset)

    def realize(seed):
        cb = sample_codebook(dist, config.n, size, 1, config.delta_code, seed)
        decoder = build_square_root_decoder(cb, bc, config.alpha, config.preset, projectors)
        words = [cb.word(m, 0) for m in range(size)]
        probs, errors, margins = {}, {}, {}
        for receiver in (1, 2):
            # each receiver decodes the common message: one group of every word
            povm = decoder.builders[receiver](words)
            margins[receiver] = povm.margin
            # probs[c, k]: the probability of outcome k on word c's state
            probs[receiver] = povm.outcomes([_word_factors(bc.marginal(receiver), w) for w in words])
            del povm
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
