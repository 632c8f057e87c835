import math

import numpy as np
import pytest

from cqrelay.errors import InvalidInputError
from cqrelay.operators import (
    CheckedOperator,
    ProbabilityDistribution,
    _hermitian,
    as_square_matrix,
    checked_operator,
    hermitian_part,
    matrix_sqrt,
    partial_trace,
    pseudo_sqrt_inverse,
    spectrum_entropy_bits,
    support_projector,
    tensor_all,
    trace_norm,
    trace_pair,
    von_neumann_entropy,
)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_checked_density_accepts_proper_states():
    rho = np.array([[0.5, 0.0], [0.0, 0.5]])
    out = checked_operator(rho, "state", density=True).matrix
    assert np.allclose(out, rho)


def test_checked_density_rejects_bad_inputs():
    with pytest.raises(InvalidInputError, match=r"^state must be square, got shape \(1, 2\)$"):
        checked_operator(np.array([[0.5, 0.5]]), "state", density=True)
    with pytest.raises(InvalidInputError):
        checked_operator(np.array([[0.9, 0.0], [0.0, 0.3]]), "state", density=True)  # trace 1.2
    with pytest.raises(InvalidInputError):
        checked_operator(np.array([[1.2, 0.0], [0.0, -0.2]]), "state", density=True)  # negative eigenvalue
    with pytest.raises(InvalidInputError):
        checked_operator(np.array([[0.5, 0.5], [0.0, 0.5]]), "state", density=True)  # not hermitian


@pytest.mark.filterwarnings("error")
def test_validators_refuse_entries_that_overflow_the_spectrum():
    # finite entries near the float limit overflow the Hermitian part: the
    # spectrum is nan, which must fail the check and warn nothing; this
    # matrix, far from positive, has unit trace
    big = np.finfo(float).max
    with pytest.raises(InvalidInputError, match="no finite spectrum"):
        checked_operator(np.array([[0.5, big], [big, 0.5]]), "state", density=True)
    with pytest.raises(InvalidInputError, match="no finite spectrum"):
        checked_operator(np.array([[0.5, big], [big, 0.5]]), "operator")
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        checked_operator(np.array([[0.5, 1j * big], [0.0, 0.5]]), "state", density=True)
    with pytest.raises(InvalidInputError, match="trace"):
        checked_operator(np.array([[big]]), "state", density=True)


def test_checked_operator_subunital_flag():
    ok = np.diag([0.3, 0.9])
    checked_operator(ok, "operator", sub_unital=True)
    with pytest.raises(InvalidInputError):
        checked_operator(np.diag([0.3, 1.2]), "operator", sub_unital=True)
    checked_operator(np.diag([0.3, 1.2]), "operator")  # fine without the flag


def test_hermitian_returns_the_matrix_and_its_adjoint():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    m, mh = _hermitian(rho, "state")
    assert np.array_equal(m, rho)
    assert np.array_equal(mh, rho.conj().T)
    with pytest.raises(InvalidInputError, match=r"^state is not Hermitian \(max deviation 5\.000e-01\)"):
        _hermitian(np.array([[0.5, 0.5], [0.0, 0.5]]), "state")


def test_von_neumann_entropy_known_values():
    assert von_neumann_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-12)
    # mixture diag(p, 1-p) has entropy h2(p)
    for p in (0.1, 0.25, 0.6):
        assert von_neumann_entropy(np.diag([p, 1 - p])) == pytest.approx(h2(p), abs=1e-12)


def test_entropy_is_basis_invariant():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert von_neumann_entropy(q @ rho @ q.conj().T) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-10
    )


def test_spectrum_entropy_matches_matrix_entropy():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 5)
    w = np.linalg.eigvalsh(rho)
    assert spectrum_entropy_bits(w) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def naive_partial_trace(mat, dims, keep):
    # independent double-loop oracle
    d1, d2 = dims
    out_dim = d1 if keep == 1 else d2
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(d1):
        for j in range(d2):
            for k in range(d1):
                for l in range(d2):
                    v = mat[i * d2 + j, k * d2 + l]
                    if keep == 1 and j == l:
                        out[i, k] += v
                    if keep == 2 and i == k:
                        out[j, l] += v
    return out


def test_partial_trace_matches_naive_loop():
    rng = np.random.default_rng(17)
    for d1, d2 in [(2, 2), (2, 3), (3, 2)]:
        joint = random_density(rng, d1 * d2)
        for keep in (1, 2):
            expected = naive_partial_trace(joint, (d1, d2), keep)
            assert np.allclose(partial_trace(joint, (d1, d2), keep), expected, atol=1e-12)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(23)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, (2, 3), 1), a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), 2), b, atol=1e-12)


def test_tensor_all_matches_repeated_kron():
    rng = np.random.default_rng(29)
    mats = [random_density(rng, 2) for _ in range(3)]
    expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.allclose(tensor_all(mats), expected)


def test_trace_norm_analytic_2x2():
    # for hermitian 2x2 the eigenvalues are t/2 +- sqrt(t^2/4 - det)
    mat = np.array([[0.3, 0.4], [0.4, -0.1]])
    t = np.trace(mat)
    disc = math.sqrt((t / 2) ** 2 - np.linalg.det(mat))
    expected = abs(t / 2 + disc) + abs(t / 2 - disc)
    assert trace_norm(mat) == pytest.approx(expected, abs=1e-12)


def test_trace_norm_of_state_difference_bounds():
    rng = np.random.default_rng(31)
    a, b = random_density(rng, 4), random_density(rng, 4)
    d = trace_norm(a - b)
    assert 0.0 <= d <= 2.0 + 1e-12
    assert trace_norm(a - a) == pytest.approx(0.0, abs=1e-12)


def test_trace_pair_matches_full_trace():
    rng = np.random.default_rng(37)
    a, b = random_density(rng, 3), random_density(rng, 3)
    assert trace_pair(a, b) == pytest.approx(np.trace(a @ b).real, abs=1e-12)


def test_matrix_sqrt_squares_back():
    rng = np.random.default_rng(41)
    rho = random_density(rng, 4)
    root = matrix_sqrt(rho)
    assert np.allclose(root @ root, rho, atol=1e-10)


def test_pseudo_sqrt_inverse_on_support():
    # rank-deficient positive operator: inverse square root acts on support only
    p = np.diag([4.0, 1.0, 0.0])
    r = pseudo_sqrt_inverse(p)
    assert np.allclose(r, np.diag([0.5, 1.0, 0.0]), atol=1e-12)
    # r p r is the support projector
    assert np.allclose(r @ p @ r, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_pseudo_sqrt_inverse_zero_operator():
    assert np.allclose(pseudo_sqrt_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


def test_support_projector_rank():
    p = support_projector(np.diag([0.7, 0.3, 0.0]))
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_support_projector_acts_per_matrix_of_a_stack(complex_entries):
    # full-rank, rank-deficient and zero matrices in one (S, d, d) stack
    rng = np.random.default_rng(53)
    mats = []
    for rank in (4, 2, 1, 0, 3):
        g = rng.standard_normal((4, rank))
        if complex_entries:
            g = g + 1j * rng.standard_normal((4, rank))
        mats.append(g @ g.conj().T)
    stack = np.array(mats)
    got = support_projector(stack)
    assert got.shape == stack.shape
    for s, mat in enumerate(mats):
        assert np.array_equal(got[s], support_projector(mat))
    assert not got[3].any()


def test_hermitian_part_symmetrizes():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    hp = hermitian_part(m)
    assert np.allclose(hp, hp.conj().T)
    assert np.allclose(hp, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_probability_distribution_validation():
    with pytest.raises(InvalidInputError):
        ProbabilityDistribution(("a", "b"), np.array([0.6, 0.6]))
    with pytest.raises(InvalidInputError):
        ProbabilityDistribution(("a", "b"), np.array([1.2, -0.2]))
    with pytest.raises(InvalidInputError):
        ProbabilityDistribution(("a", "a"), np.array([0.5, 0.5]))
    dist = ProbabilityDistribution(("a", "b"), np.array([0.25, 0.75]))
    assert dist.weights[dist.labels.index("b")] == 0.75
    assert tuple(a for a, w in zip(dist.labels, dist.weights) if w > 0.0) == ("a", "b")


@pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf]])
def test_probability_distribution_refuses_weights_that_are_not_finite(weights):
    # a NaN weight fails neither the sign test nor the sum test
    with pytest.raises(InvalidInputError, match="finite"):
        ProbabilityDistribution(("a", "b"), np.array(weights))


def test_probability_distribution_uniform_and_power():
    dist = ProbabilityDistribution.uniform(("x", "y"))
    assert dist.weights[dist.labels.index("x")] == pytest.approx(0.5)
    sq = dist.power(2)
    assert len(sq.labels) == 4
    assert ("x", "y") in sq.labels
    assert sq.weights[sq.labels.index(("x", "y"))] == pytest.approx(0.25)
    skew = ProbabilityDistribution(("x", "y"), np.array([0.25, 0.75]))
    cube = skew.power(3)
    assert cube.weights[cube.labels.index(("y", "x", "y"))] == pytest.approx(0.75 * 0.25 * 0.75, abs=1e-15)
    assert sum(cube.weights) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# checked operators: each validated operator is decomposed once
# ---------------------------------------------------------------------------


@pytest.fixture
def eig_count(monkeypatch):
    """Counts np.linalg.eigh and eigvalsh calls (a stack counts once)."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize(
    "routine",
    [matrix_sqrt, pseudo_sqrt_inverse, support_projector, von_neumann_entropy],
    ids=lambda f: f.__name__,
)
def test_each_spectral_routine_decomposes_its_argument_once(routine, eig_count):
    rho = random_density(np.random.default_rng(43), 4)
    routine(rho)
    assert eig_count["eigh"] + eig_count["eigvalsh"] == 1


def test_spectral_routines_reuse_a_checked_decomposition(eig_count):
    rho = random_density(np.random.default_rng(47), 3)
    op = checked_operator(rho, "state", vectors=True)
    assert eig_count == {"eigh": 1, "eigvalsh": 0}
    assert np.array_equal(matrix_sqrt(op), matrix_sqrt(rho))
    assert np.array_equal(pseudo_sqrt_inverse(op), pseudo_sqrt_inverse(rho))
    assert np.array_equal(support_projector(op), support_projector(rho))
    assert eig_count == {"eigh": 4, "eigvalsh": 0}  # the three raw calls only


def test_checked_operator_arrays_are_read_only():
    rng = np.random.default_rng(53)
    stack = np.array([random_density(rng, 3) for _ in range(4)])
    op = checked_operator(stack, "state", density=True, vectors=True)
    assert stack.flags.writeable  # the caller's array is left as it was
    for checked in (op, op[2]):
        for arr in (checked.matrix, checked.spectrum, checked.vectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[..., 0] = 0.0
    assert op[2].density and not op[2].sub_unital
    assert np.array_equal(op[2].matrix, stack[2])
    assert np.array_equal(op[2].spectrum, np.linalg.eigh(hermitian_part(stack[2]))[0])


def test_checked_operator_is_made_by_the_validators_only():
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(InvalidInputError, match="validators"):
        CheckedOperator(rho, np.array([0.5, 0.5]), None, True, True)


def test_checked_operator_lacking_a_property_is_checked_again():
    positive = checked_operator(np.diag([0.3, 1.2]), "operator")
    with pytest.raises(InvalidInputError, match=r"^X exceeds the identity"):
        checked_operator(positive, "X", sub_unital=True)
    with pytest.raises(InvalidInputError, match=r"^X has trace 1.5"):
        checked_operator(positive, "X", density=True)
    assert checked_operator(positive, "X") is positive


def test_raw_stack_failures_name_the_matrix():
    stack = np.array([np.diag([0.5, 0.5]), np.diag([1.2, -0.2])])
    with pytest.raises(InvalidInputError, match=r"^state\[1\] has negative eigenvalue"):
        checked_operator(stack, "state", density=True, vectors=True)


@pytest.mark.parametrize(
    "mat, dtype",
    [
        ([[1, 0], [0, 0]], np.float64),
        ([[True, False], [False, True]], np.float64),
        (np.eye(2, dtype=np.float32), np.float64),
        (np.eye(2), np.float64),
        (np.eye(2, dtype=np.complex64), np.complex128),
        ([[0.5, 0.5j], [-0.5j, 0.5]], np.complex128),
    ],
)
def test_square_matrices_stay_real_unless_the_input_is_complex(mat, dtype):
    assert as_square_matrix(mat).dtype == dtype
    assert checked_operator(mat, "operator").matrix.dtype == dtype


def test_real_input_gives_real_spectral_results():
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    u = checked_operator(rho, "state", vectors=True).vectors
    assert u.dtype == np.float64
    root = pseudo_sqrt_inverse(rho)
    assert root.dtype == np.float64
    complex_root = pseudo_sqrt_inverse(rho.astype(complex))
    assert np.abs(root - complex_root).max() <= 1e-14
