"""Numerical checks of the operator inequalities behind square-root decoding.

Each check evaluates both sides of one inequality exactly (up to floating
point) and reports the slack; a check "holds" when lhs <= rhs up to
operators.REPORT_RTOL relative to the larger side (operators._within).
Operands are matrices or CheckedOperators: a check validates each operand
unless it was already checked for the property the check needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .operators import (
    _integral,
    _spectral_apply,
    _within,
    checked_operator,
    hermitian_part,
    matrix_sqrt,
    pseudo_sqrt_inverse,
    trace_norm,
    trace_pair,
)

# each check's operands in call order, as (name, density, sub_unital, vectors):
# the properties that check asks of them
_OPERANDS = {
    "close-states": (("sigma", True, False, False), ("rho", True, False, False), ("effect", False, True, False)),
    "tender": (("rho", True, False, False), ("effect", False, True, True)),
    "hayashi-nagaoka": (("S", False, True, False), ("T", False, False, False)),
}


def _checked_operands(name: str, *operands) -> tuple:
    """The operands of check name, or their stacks, each checked as _OPERANDS asks."""
    return tuple(
        checked_operator(op, label, density, sub_unital, vectors)
        for op, (label, density, sub_unital, vectors) in zip(operands, _OPERANDS[name])
    )


@dataclass(frozen=True)
class LemmaCheckResult:
    lhs: float
    rhs: float
    slack: float
    holds: bool


def check_measurement_on_close_states(sigma, rho, effect) -> LemmaCheckResult:
    """tr(Pi sigma) >= tr(Pi rho) - ||sigma - rho||_1 for 0 <= Pi <= id."""
    sigma, rho, effect = (op.matrix for op in _checked_operands("close-states", sigma, rho, effect))
    lhs = trace_pair(effect, rho) - trace_norm(sigma - rho)
    rhs = trace_pair(effect, sigma)
    slack = rhs - lhs
    return LemmaCheckResult(lhs=lhs, rhs=rhs, slack=slack, holds=_within(lhs, rhs))


def check_tender_operator(rho, effect) -> LemmaCheckResult:
    """||rho - sqrt(X) rho sqrt(X)||_1 <= sqrt(8 lambda) with lambda = 1 - tr(rho X)."""
    # the square root reuses the eigendecomposition the check read
    rho, effect = _checked_operands("tender", rho, effect)
    rho = rho.matrix
    lam = 1.0 - trace_pair(rho, effect.matrix)
    lam = min(max(lam, 0.0), 1.0)
    root = matrix_sqrt(effect)
    lhs = trace_norm(rho - root @ rho @ root)
    rhs = math.sqrt(8.0 * lam)
    slack = rhs - lhs
    return LemmaCheckResult(lhs=lhs, rhs=rhs, slack=slack, holds=_within(lhs, rhs))


def check_hayashi_nagaoka(s_op, t_op) -> LemmaCheckResult:
    """id - (S+T)^(-1/2) S (S+T)^(-1/2) <= 2(id - S) + 4T in operator order.

    The inverse square root is taken on the support of S+T.  lhs is the
    largest eigenvalue of (left side - right side); slack is its negation.

    The coefficient on (id - S) must be 2: the version with coefficient 1
    that sometimes appears in print is false, e.g. S = |v><v| with
    v = (cos 0.01, sin 0.01), T = 0.05|0><0| gives an operator gap of
    about +0.117 on the wrong side.
    """
    s_op, t_op = (op.matrix for op in _checked_operands("hayashi-nagaoka", s_op, t_op))
    if s_op.shape != t_op.shape:
        raise InvalidInputError("S and T must share a dimension")
    eye = np.eye(s_op.shape[0])
    normalizer = pseudo_sqrt_inverse(s_op + t_op)
    left = eye - normalizer @ s_op @ normalizer
    right = 2.0 * (eye - s_op) + 4.0 * t_op
    gap = np.linalg.eigvalsh(hermitian_part(left - right))
    lhs = float(gap[-1])
    slack = -lhs
    return LemmaCheckResult(lhs=lhs, rhs=0.0, slack=slack, holds=_within(lhs, 0.0))


# ---------------------------------------------------------------------------
# Random instance generators (documented distributions, reproducible by seed).
# Each random matrix comes from one complex Gaussian G, drawn as its real and
# then its imaginary parts.  The builders turn (..., 2, d, d) stacks of such
# draws into operators, so instances drawn one at a time build as a stack.
# ---------------------------------------------------------------------------


def gaussian_draws(rng: np.random.Generator, dim: int, count: int = 1) -> np.ndarray:
    """count draws of G, shape (count, 2, dim, dim), as count generator calls draw them."""
    return rng.standard_normal((count, 2, dim, dim))


def _ginibre(draws: np.ndarray) -> np.ndarray:
    return draws[..., 0, :, :] + 1j * draws[..., 1, :, :]


def densities(draws: np.ndarray) -> np.ndarray:
    """Normalized Wishart states G G† / tr(G G†), one per draw."""
    g = _ginibre(draws)
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def subunital_effects(draws: np.ndarray) -> np.ndarray:
    """The Hermitian part of G with its eigenvalues clamped into [0, 1], one per draw."""
    w, u = np.linalg.eigh(hermitian_part(_ginibre(draws)))
    return _spectral_apply(u, np.clip(w, 0.0, 1.0))


def scaled_positives(draws: np.ndarray, scale) -> np.ndarray:
    """scale G G† / d, one per draw (scale broadcasts over the draws)."""
    g = _ginibre(draws)
    scale = np.asarray(scale, dtype=float)[..., None, None]
    return scale * (g @ g.conj().swapaxes(-1, -2)) / g.shape[-1]


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized Wishart state: G G† / tr(G G†) with complex Gaussian G."""
    return densities(gaussian_draws(rng, dim))[0]


def random_subunital_positive(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian with eigenvalues clamped into [0, 1]."""
    return subunital_effects(gaussian_draws(rng, dim))[0]


def random_positive(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Scaled Wishart positive operator (not trace-normalized)."""
    return scaled_positives(gaussian_draws(rng, dim), scale)[0]


_LEMMA_NAMES = ("close-states", "tender", "hayashi-nagaoka")

# A sweep draws its trials this many at a time and builds each block's
# operators as per-dimension stacks; a fixed size bounds the memory it holds.
SWEEP_BLOCK = 256


def _draw_trial(name: str, rng: np.random.Generator, dim: int) -> tuple[np.ndarray, float]:
    """A trial's draws, in the order its random_* generator calls take them."""
    if name == "hayashi-nagaoka":
        # the scale of T is drawn between the draws of S and T
        s_draw = gaussian_draws(rng, dim)
        scale = float(rng.uniform(0.0, 2.0))
        return np.concatenate([s_draw, gaussian_draws(rng, dim)]), scale
    return gaussian_draws(rng, dim, 3 if name == "close-states" else 2), 0.0


def _build_operands(name: str, draws: np.ndarray, scales: np.ndarray) -> tuple:
    """The check's operand stacks from a (k, matrices, 2, d, d) stack of trial draws."""
    if name == "close-states":
        return densities(draws[:, 0]), densities(draws[:, 1]), subunital_effects(draws[:, 2])
    if name == "tender":
        return densities(draws[:, 0]), subunital_effects(draws[:, 1])
    return subunital_effects(draws[:, 0]), scaled_positives(draws[:, 1], scales)


def _by_dim(dims, score) -> list:
    """score(idx) for the instance indices idx of each dimension, taken in
    order of first appearance; score returns one result per index, and the
    results come back in instance order."""
    groups: dict[int, list] = {}
    for i, dim in enumerate(dims):
        groups.setdefault(dim, []).append(i)
    out = [None] * len(dims)
    for idx in groups.values():
        for i, result in zip(idx, score(idx)):
            out[i] = result
    return out


def _block_operands(name: str, block: list) -> list:
    """Each (dim, draws, scale) trial's operands as CheckedOperators.

    A block builds one stack per dimension and operand, and checks each
    stack in one call for the properties its check needs.
    """
    def checked(idx):
        built = _build_operands(name, np.array([block[i][1] for i in idx]), np.array([block[i][2] for i in idx]))
        stacks = _checked_operands(name, *built)
        return [tuple(op[j] for op in stacks) for j in range(len(idx))]

    return _by_dim([dim for dim, _, _ in block], checked)


def sweep_lemma_checks(
    trials: int = 1000,
    seed: int = 20240801,
    dims=(2, 3, 4, 5, 6, 7, 8),
    which=_LEMMA_NAMES,
) -> dict:
    """Randomized verification sweeps; returns per-lemma slack summaries.

    Trial i of a lemma draws its dimension and then its matrices from the
    i-th child of the lemma's seed stream, and is checked on its own.
    """
    unknown = set(which) - set(_LEMMA_NAMES)
    if unknown:
        raise InvalidInputError(f"unknown lemma names: {sorted(unknown)}")
    if not which:
        raise InvalidInputError("a sweep needs at least one lemma name")
    if trials < 1:
        raise InvalidInputError(f"a sweep needs at least one trial, got {trials!r}")
    sizes = tuple(map(_integral, dims))
    if not sizes or any(d is None or d < 1 for d in sizes):
        raise InvalidInputError(f"a sweep needs dimensions, each an integer >= 1, got {tuple(dims)!r}")
    dims = sizes
    # looked up per sweep, so a wrapped module-level check is the one called
    checks = {
        "close-states": check_measurement_on_close_states,
        "tender": check_tender_operator,
        "hayashi-nagaoka": check_hayashi_nagaoka,
    }
    summary = {}
    base = np.random.SeedSequence(seed)
    streams = dict(zip(_LEMMA_NAMES, base.spawn(len(_LEMMA_NAMES))))
    for name in which:
        min_slack = math.inf
        worst = ""
        failures = 0
        for start in range(0, trials, SWEEP_BLOCK):
            block = []
            # spawn continues the stream's child counter: children spawned a
            # block at a time are those of one spawn(trials)
            for child in streams[name].spawn(min(SWEEP_BLOCK, trials - start)):
                rng = np.random.default_rng(child)
                dim = dims[int(rng.integers(0, len(dims)))]  # the same draw as rng.choice(dims)
                block.append((dim, *_draw_trial(name, rng, dim)))
            for i, ((dim, _, _), operands) in enumerate(zip(block, _block_operands(name, block)), start):
                result = checks[name](*operands)
                if result.slack < min_slack:
                    min_slack = result.slack
                    worst = f"{name}[{i}] dim={dim}"
                if not result.holds:
                    failures += 1
        summary[name] = {
            "trials": trials,
            "min_slack": min_slack,
            "worst_instance": worst,
            "failures": failures,
            "all_hold": failures == 0,
        }
    return summary
