import json
import math
import tracemalloc

import numpy as np
import pytest

from cqrelay.channels import (
    BroadcastCQChannel,
    CQChannel,
    MACCQChannel,
    _averaged_states,
    _chi,
    _letter_entropy,
    _letter_sum,
    adder_mac_channel,
    basis_state,
    channel_to_jsonable,
    conditional_entropy,
    constant_channel,
    depolarized_channel,
    dump_json,
    holevo_chi,
    load_channel,
    matrix_from_literal,
    matrix_to_literal,
    orthogonal_pure_channel,
    output_state,
    overlap_pair_channel,
    product_broadcast_channel,
    product_extension,
)
from cqrelay.errors import InvalidInputError, ResourceLimitError
from cqrelay.operators import ProbabilityDistribution, partial_trace
from cqrelay.regions import DistributionGrid, broadcast_region


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def random_qubit_channel(rng, n_inputs=2):
    states = {}
    for k in range(n_inputs):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        states[str(k)] = m / np.trace(m).real
    return CQChannel(tuple(str(k) for k in range(n_inputs)), states)


def test_cq_channel_validates_inputs():
    good = orthogonal_pure_channel()
    assert good.alphabet == ("0", "1")
    assert good.output_dim == 2
    with pytest.raises(InvalidInputError):
        CQChannel(("0",), {"0": np.diag([0.9, 0.3])})  # trace not 1
    with pytest.raises(InvalidInputError):
        CQChannel(("0", "1"), {"0": np.eye(2) / 2})  # missing label
    with pytest.raises(InvalidInputError):
        CQChannel(("0", "1"), {"0": np.eye(2) / 2, "1": np.eye(3) / 3})  # dim mismatch


def test_a_state_table_is_real_only_when_no_state_has_an_imaginary_part():
    real = np.diag([0.75, 0.25])
    twisted = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    tiny = np.array([[0.5, 1e-300j], [-1e-300j, 0.5]])
    # one state with a nonzero imaginary entry keeps every state complex, in
    # every channel kind, however small that entry is
    for odd in (twisted, tiny):
        cq = CQChannel(("0", "1"), {"0": real, "1": odd})
        bc = BroadcastCQChannel(("0", "1"), (2, 1), {"0": real, "1": odd})
        mac = MACCQChannel((("0", "1"), ("0",)), {("0", "0"): real, ("1", "0"): odd})
        states = [cq.state("0"), bc.joint_state("0"), mac.state("0", "0")]
        assert [st.dtype for st in states] == [np.dtype(complex)] * 3
        assert all(st[0, 0] == 0.75 for st in states)
    # a complex table whose imaginary parts are all exactly 0 (-0.0 too) is
    # held as float64, and so are the broadcast marginals and extensions
    zero = np.array([[0.5, complex(0.25, -0.0)], [0.25, 0.5]])
    ch = CQChannel(("0", "1"), {"0": real.astype(complex), "1": zero})
    assert {ch.state(a).dtype for a in ch.alphabet} == {np.dtype(float)}
    assert ch.state("1")[0, 1] == 0.25
    assert product_extension(ch, 2).state(("0", "1")).dtype == np.dtype(float)
    bc = product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.1))
    assert {bc.marginal(r).state("1").dtype for r in (1, 2)} == {np.dtype(float)}
    # the integer states of a file-free MAC become float64
    mac = MACCQChannel((("0",), ("0",)), {("0", "0"): np.array([[1, 0], [0, 0]])})
    assert mac.state("0", "0").dtype == np.dtype(float)
    # the table holds copies: changing a caller's array later changes no state
    for given in (real.copy(), twisted.copy()):
        ch = CQChannel(("0",), {"0": given})
        kept = ch.state("0").copy()
        given[0, 0] = 0.0
        assert np.array_equal(ch.state("0"), kept)


def test_word_state_is_tensor_of_letters():
    ch = overlap_pair_channel()
    w = ch.word_state(("0", "+", "0"))
    expected = np.kron(np.kron(ch.state("0"), ch.state("+")), ch.state("0"))
    assert np.allclose(w, expected)


def test_chi_orthogonal_pure_is_one_bit():
    ch = orthogonal_pure_channel()
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    assert holevo_chi(ch, dist) == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy(ch, dist) == pytest.approx(0.0, abs=1e-12)


def test_chi_identical_states_is_zero():
    ch = CQChannel(("0", "1"), {"0": np.eye(2) / 2, "1": np.eye(2) / 2})
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    assert holevo_chi(ch, dist) == pytest.approx(0.0, abs=1e-14)


def test_chi_overlap_pair_known_value():
    # two pure states with squared overlap 1/2; the average has eigenvalues
    # (1 +- 1/sqrt(2)) / 2, so chi = h2((1 + 1/sqrt(2)) / 2)
    ch = overlap_pair_channel()
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    expected = h2((1 + 2 ** -0.5) / 2)
    assert holevo_chi(ch, dist) == pytest.approx(expected, abs=1e-12)


def test_chi_depolarized_known_value():
    # depolarized orthogonal qubit pair: chi = 1 - h2(p/2)
    p = 0.1
    ch = depolarized_channel(p)
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    assert holevo_chi(ch, dist) == pytest.approx(1 - h2(p / 2), abs=1e-12)


def test_chi_nonuniform_weights():
    ch = orthogonal_pure_channel()
    dist = ProbabilityDistribution(("0", "1"), np.array([0.2, 0.8]))
    assert holevo_chi(ch, dist) == pytest.approx(h2(0.2), abs=1e-12)


def test_output_state_is_weighted_average():
    ch = depolarized_channel(0.3)
    dist = ProbabilityDistribution(("0", "1"), np.array([0.25, 0.75]))
    avg = 0.25 * ch.state("0") + 0.75 * ch.state("1")
    assert np.allclose(output_state(ch, dist), avg)


def test_chi_additive_under_product_extension():
    rng = np.random.default_rng(101)
    for _ in range(5):
        ch = random_qubit_channel(rng)
        dist = ProbabilityDistribution(("0", "1"), np.array([0.3, 0.7]))
        base = holevo_chi(ch, dist)
        for n in (2, 3):
            ext = product_extension(ch, n)
            assert holevo_chi(ext, dist.power(n)) / n == pytest.approx(base, abs=1e-10)


def test_product_extension_alphabet_order_matches_power():
    ch = orthogonal_pure_channel()
    ext = product_extension(ch, 2)
    dist = ProbabilityDistribution.uniform(ch.alphabet).power(2)
    assert ext.alphabet == dist.labels


def test_product_extension_dim_cap():
    # at n = 15 the first word state alone is a 2^15 x 2^15 float64 matrix
    # (8 GiB), built beside the one before it
    ch = orthogonal_pure_channel()
    with pytest.raises(ResourceLimitError, match=r"^the 15-letter extension needs about 16 GiB, above the 2 GiB memory budget$"):
        product_extension(ch, 15)


def test_product_extension_dim_cap_rejects_absurd_n_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"^the 1000000000000-letter extension needs about more bytes than a float counts, above the 2 GiB memory budget$"):
            product_extension(depolarized_channel(0.1), 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_product_extension_caps_the_alphabet_of_one_dimensional_outputs():
    # 1-dimensional outputs pass the output cap at every n; the 2^40 alphabet
    # tuples must still be refused before any is formed
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"^the 40-letter extension needs about 4\.51e\+05 GiB, above"):
            product_extension(constant_channel(2, dim=1), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_broadcast_marginals_of_product_channel():
    ch1 = orthogonal_pure_channel()
    ch2 = depolarized_channel(0.2)
    bc = product_broadcast_channel(ch1, ch2)
    m1 = bc.marginal(1)
    m2 = bc.marginal(2)
    for a in bc.alphabet:
        assert np.allclose(m1.state(a), ch1.state(a), atol=1e-12)
        assert np.allclose(m2.state(a), ch2.state(a), atol=1e-12)


def test_broadcast_marginal_consistency_general():
    # marginals must equal partial traces of the joint state
    rng = np.random.default_rng(7)
    states = {}
    for a in ("0", "1"):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        states[a] = m / np.trace(m).real
    bc = BroadcastCQChannel(("0", "1"), (2, 2), states)
    for a in ("0", "1"):
        assert np.allclose(bc.marginal(1).state(a), partial_trace(states[a], (2, 2), 1))
        assert np.allclose(bc.marginal(2).state(a), partial_trace(states[a], (2, 2), 2))
    with pytest.raises(InvalidInputError):
        bc.marginal(3)


def test_broadcast_validates_dims():
    with pytest.raises(InvalidInputError):
        BroadcastCQChannel(("0",), (2, 3), {"0": np.eye(4) / 4})


def test_adder_mac_states():
    mac = adder_mac_channel()
    assert mac.alphabets == (("0", "1"), ("0", "1"))
    assert mac.output_dim == 3
    assert np.allclose(mac.state("0", "0"), basis_state(0, 3))
    assert np.allclose(mac.state("1", "0"), mac.state("0", "1"))
    assert np.allclose(mac.state("1", "0"), basis_state(1, 3))
    assert np.allclose(mac.state("1", "1"), basis_state(2, 3))


def test_constant_channel_zero_chi():
    ch = constant_channel(3, 2)
    dist = ProbabilityDistribution.uniform(ch.alphabet)
    assert holevo_chi(ch, dist) == pytest.approx(0.0, abs=1e-14)


def test_matrix_literal_roundtrip():
    mat = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
    lit = matrix_to_literal(mat)
    back = matrix_from_literal(lit)
    assert np.allclose(back, mat)


def test_matrix_literal_complex_pairs():
    lit = [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]
    mat = matrix_from_literal(lit)
    assert mat[0, 1] == pytest.approx(-0.5j)
    assert mat[1, 0] == pytest.approx(0.5j)


def test_matrix_literal_rejects_garbage():
    with pytest.raises(InvalidInputError):
        matrix_from_literal("nope")
    with pytest.raises(InvalidInputError):
        matrix_from_literal([[1.0, 2.0], [3.0]])


def test_channel_json_roundtrip(tmp_path):
    path = tmp_path / "bc.json"
    bc = product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.1))
    path.write_text(dump_json(channel_to_jsonable(bc)), encoding="utf-8")
    loaded = load_channel(str(path))
    assert isinstance(loaded, BroadcastCQChannel)
    assert loaded.alphabet == bc.alphabet
    assert loaded.dims == bc.dims
    for a in bc.alphabet:
        assert np.allclose(loaded.joint_state(a), bc.joint_state(a), atol=1e-12)


def test_mac_json_roundtrip(tmp_path):
    path = tmp_path / "mac.json"
    path.write_text(dump_json(channel_to_jsonable(adder_mac_channel())), encoding="utf-8")
    loaded = load_channel(str(path))
    assert isinstance(loaded, MACCQChannel)
    assert np.allclose(loaded.state("1", "0"), adder_mac_channel().state("1", "0"))


def _comma_mac(a2):
    """A MAC on ("0,1", "0") x a2 with a distinct basis state for each pair."""
    a1 = ("0,1", "0")
    pairs = [(y1, y2) for y1 in a1 for y2 in a2]
    return MACCQChannel((a1, a2), {pair: basis_state(i, len(pairs)) for i, pair in enumerate(pairs)})


def test_mac_comma_labels_round_trip_unless_their_keys_collide(tmp_path):
    # labels with commas round-trip while every "y1,y2" key is distinct
    path = tmp_path / "mac.json"
    mac = _comma_mac(("2", "1"))
    path.write_text(dump_json(channel_to_jsonable(mac)), encoding="utf-8")
    loaded = load_channel(str(path))
    assert loaded.alphabets == mac.alphabets
    for y1 in mac.alphabets[0]:
        for y2 in mac.alphabets[1]:
            assert np.array_equal(loaded.state(y1, y2), mac.state(y1, y2))
    # ("0,1", "2") and ("0", "1,2") both spell "0,1,2": a file would hold
    # one state for two pairs
    with pytest.raises(InvalidInputError, match="share the state key '0,1,2'"):
        channel_to_jsonable(_comma_mac(("2", "1,2")))


def test_load_channel_errors(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(InvalidInputError):
        load_channel(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_channel(str(bad))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(InvalidInputError):
        load_channel(str(unknown))


def test_depolarized_channel_validates_p():
    with pytest.raises(InvalidInputError):
        depolarized_channel(-0.1)
    with pytest.raises(InvalidInputError):
        depolarized_channel(1.5)


# ---------------------------------------------------------------------------
# One state table, and one letter-order entropic core.
# ---------------------------------------------------------------------------


def random_channel(rng, a_size, dim):
    labels = tuple(str(k) for k in range(a_size))
    states = {}
    for a in labels:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        states[a] = m / np.trace(m).real
    return CQChannel(labels, states)


def weight_rows(rng, a_size, rows=12):
    """Random rows on the simplex, a third of their entries zeroed; the last
    letter is zero in every row but the first, and one row is a vertex."""
    w = rng.random((rows, a_size)) * (rng.random((rows, a_size)) > 0.33)
    w[1:, -1] = 0.0
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    w[-1] = np.eye(a_size)[rng.integers(a_size)]
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("a_size", [2, 3, 5])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_weight_rows_equal_the_one_distribution_path(a_size, dim):
    rng = np.random.default_rng(100 * a_size + dim)
    ch = random_channel(rng, a_size, dim)
    rows = weight_rows(rng, a_size)
    stacked = rows.reshape(3, 4, a_size)
    chi, cond, avg = _chi(ch, stacked), _letter_entropy(ch, stacked), _averaged_states(ch, stacked)
    assert chi.shape == cond.shape == (3, 4) and avg.shape == (3, 4, dim, dim)
    for g, row in enumerate(rows):
        dist = ProbabilityDistribution(ch.alphabet, row)
        at = np.unravel_index(g, (3, 4))
        assert chi[at] == holevo_chi(ch, dist)
        assert cond[at] == conditional_entropy(ch, dist)
        assert np.array_equal(avg[at], output_state(ch, dist))


def test_core_skips_a_letter_of_zero_weight_in_every_row():
    read = []
    rows = np.array([[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]])
    total = _letter_sum(rows, lambda j: read.append(j) or float(j + 1))
    assert read == [0, 2]
    assert total.tolist() == [0.5 * 1 + 0.5 * 3, 0.25 * 1 + 0.75 * 3]


@pytest.mark.parametrize("a_size, dims", [(2, (2, 2)), (3, (2, 3)), (5, (2, 2))])
def test_broadcast_region_corners_are_one_distribution_chi(a_size, dims):
    rng = np.random.default_rng(a_size)
    joint = random_channel(rng, a_size, dims[0] * dims[1])
    bc = BroadcastCQChannel(joint.alphabet, dims, {a: joint.state(a) for a in joint.alphabet})
    grid = DistributionGrid(bc.alphabet, 6)
    corners = {(0.0, 0.0)}
    for row in grid.weight_matrix():
        dist = ProbabilityDistribution(bc.alphabet, row)
        x1, x2 = (max(0.0, holevo_chi(bc.marginal(r), dist)) for r in (1, 2))
        corners |= {(x1, 0.0), (0.0, x2), (x1, x2)}
    rounded = {(round(x, 12), round(y, 12)) for x, y in corners}
    vertices = broadcast_region(bc, grid).vertices
    assert len(vertices) > 2
    assert all(tuple(v) in rounded for v in vertices)


def test_chi_of_a_product_extension_streams_its_letters():
    # one word state at a time: a core that stacked the 64 letters of
    # n = 6 (64 x 64 each) would peak near 12 MiB
    n = 6
    ch = product_extension(depolarized_channel(0.1), n)
    dist = ProbabilityDistribution.uniform(("0", "1")).power(n)
    tracemalloc.start()
    try:
        value = holevo_chi(ch, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(n * holevo_chi(depolarized_channel(0.1), ProbabilityDistribution.uniform(("0", "1"))))
    assert peak < 4 * 2**20


def test_every_channel_kind_refuses_repeated_labels():
    rho = np.eye(2) / 2
    with pytest.raises(InvalidInputError, match="channel alphabet labels must be distinct"):
        CQChannel(("0", "0"), {"0": rho})
    with pytest.raises(InvalidInputError, match="broadcast alphabet labels must be distinct"):
        BroadcastCQChannel(("0", "0"), (2, 1), {"0": rho})
    with pytest.raises(InvalidInputError, match="first sender alphabet labels must be distinct"):
        MACCQChannel((("0", "0"), ("0", "1")), {("0", "0"): rho, ("0", "1"): rho})
    with pytest.raises(InvalidInputError, match="second sender alphabet labels must be distinct"):
        MACCQChannel((("0",), ("1", "1")), {("0", "1"): rho})


def test_unvalidated_channel_keeps_its_mapping():
    states = {"0": np.eye(2) / 2, "1": np.diag([1.0, 0.0])}
    ch = CQChannel(("0", "1"), states, validate=False)
    assert ch.output_dim == 2
    assert ch.state("1") is states["1"]
