import json
import math
import tracemalloc

import pytest

from cqrelay import cli, coding
from cqrelay.channels import (
    BroadcastCQChannel,
    CQChannel,
    MACCQChannel,
    basis_state,
    dump_json,
    holevo_chi,
    load_channel,
    matrix_to_literal,
)
from cqrelay.cli import main
from cqrelay.errors import InvalidInputError, RelayError
from cqrelay.operators import ProbabilityDistribution


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def write_channel(tmp_path, family, name, extra=()):
    path = tmp_path / name
    rc = main(["generate", family, "--out", str(path), *extra])
    assert rc == 0
    return str(path)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_families_roundtrip(tmp_path):
    expected = {
        "orthogonal": CQChannel,
        "overlap-pair": CQChannel,
        "depolarized": CQChannel,
        "constant": CQChannel,
        "adder-mac": MACCQChannel,
        "product-broadcast": BroadcastCQChannel,
    }
    for family, cls in expected.items():
        path = write_channel(tmp_path, family, family + ".json")
        assert isinstance(load_channel(path), cls)


def test_generate_constant_dim_sets_the_output_dimension(tmp_path):
    channel = load_channel(write_channel(tmp_path, "constant", "c.json", ["--dim", "3"]))
    assert channel.alphabet == ("0", "1")
    assert channel.output_dim == 3


def test_generate_rejects_invalid_weight(tmp_path, capsys):
    rc = main(["generate", "depolarized", "--p", "1.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def test_chi_text_output(tmp_path, capsys):
    path = write_channel(tmp_path, "orthogonal", "ortho.json")
    rc = main(["chi", "--channel", path])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "chi_bits 1.000000000"
    assert lines[1] == "output_entropy_bits 1.000000000"
    assert lines[2] == "conditional_entropy_bits 0.000000000"


def test_chi_json_matches_library(tmp_path, capsys):
    path = write_channel(tmp_path, "depolarized", "dep.json", ["--p", "0.3"])
    rc = main(["chi", "--channel", path, "--format", "json"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    channel = load_channel(path)
    dist = ProbabilityDistribution.uniform(channel.alphabet)
    assert got["chi_bits"] == pytest.approx(holevo_chi(channel, dist), abs=1e-12)
    assert got["chi_bits"] == pytest.approx(1 - h2(0.15), abs=1e-9)


def test_chi_dist_flag(tmp_path, capsys):
    path = write_channel(tmp_path, "orthogonal", "ortho.json")
    rc = main(["chi", "--channel", path, "--dist", "0.8,0.2", "--format", "json"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["chi_bits"] == pytest.approx(h2(0.2), abs=1e-12)


def test_chi_input_errors(tmp_path, capsys):
    path = write_channel(tmp_path, "orthogonal", "ortho.json")
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    assert main(["chi", "--channel", str(tmp_path / "missing.json")]) == 1
    assert main(["chi", "--channel", path, "--dist", "0.5"]) == 1
    assert main(["chi", "--channel", path, "--dist", "a,b"]) == 1
    assert main(["chi", "--channel", mac]) == 1
    capsys.readouterr()


def test_chi_out_file(tmp_path):
    path = write_channel(tmp_path, "orthogonal", "ortho.json")
    out = tmp_path / "chi.txt"
    assert main(["chi", "--channel", path, "--out", str(out)]) == 0
    assert out.read_text().startswith("chi_bits 1.000000000")
    bad = tmp_path / "nope" / "chi.txt"
    assert main(["chi", "--channel", path, "--out", str(bad)]) == 1


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def test_region_mac_csv_vertices(tmp_path, capsys):
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    rc = main(["region", "mac", "--mac-channel", mac, "--grid-k", "8"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "R1,R2"
    assert lines[1:] == [
        "0.000000,0.000000",
        "1.000000,0.000000",
        "1.000000,0.500000",
        "0.500000,1.000000",
        "0.000000,1.000000",
    ]


def test_region_mac_as_written_json(tmp_path, capsys):
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    rc = main(
        [
            "region", "mac", "--mac-channel", mac, "--grid-k", "8",
            "--variant", "as-written", "--format", "json",
        ]
    )
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert set(got) == {"vertices", "halfplanes", "max_sum_rate"}
    assert got["max_sum_rate"] <= 1.5 + 1e-9
    assert [1.0, 0.0] in got["vertices"]


def test_region_broadcast_json_corner(tmp_path, capsys):
    bc = write_channel(tmp_path, "product-broadcast", "bc.json", ["--p", "0.2"])
    rc = main(["region", "broadcast", "--bc-channel", bc, "--grid-k", "16", "--format", "json"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    corner = [1.0, 1 - h2(0.1)]
    assert any(
        abs(v[0] - corner[0]) <= 1e-6 and abs(v[1] - corner[1]) <= 1e-6
        for v in got["vertices"]
    )


def test_region_bidirectional_blocks(tmp_path, capsys):
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    rc = main(
        [
            "region", "bidirectional", "--mac-channel", mac,
            "--bc-channel", bc, "--grid-k", "8",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("# ") if b]
    assert [b.splitlines()[0] for b in blocks] == ["mac", "broadcast", "intersection"]
    for block in blocks:
        assert block.splitlines()[1] == "R1,R2"


def test_region_bidirectional_json_keys(tmp_path, capsys):
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    rc = main(
        [
            "region", "bidirectional", "--mac-channel", mac, "--bc-channel", bc,
            "--grid-k", "8", "--format", "json",
        ]
    )
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert set(got) == {"mac", "broadcast", "intersection"}
    # the intersection never exceeds either factor's best sum rate
    assert got["intersection"]["max_sum_rate"] <= got["mac"]["max_sum_rate"] + 1e-9
    assert got["intersection"]["max_sum_rate"] <= got["broadcast"]["max_sum_rate"] + 1e-9


def test_region_input_errors(tmp_path, capsys):
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    assert main(["region", "mac"]) == 1
    assert main(["region", "broadcast", "--bc-channel", mac]) == 1
    assert main(["region", "mac", "--mac-channel", bc]) == 1
    assert main(["region", "bidirectional", "--mac-channel", mac]) == 1
    capsys.readouterr()


def _diag_literal(values):
    return [[[float(v) if i == j else 0.0, 0.0] for j in range(len(values))] for i, v in enumerate(values)]


# A valid file of each kind, the key of its second state, the command that
# loads it, and its state dimension.
_CHANNEL_FILES = {
    "cq": (
        {"kind": "cq", "alphabet": ["0", "1"], "dims": 2,
         "states": {"0": _diag_literal([0.5, 0.5]), "1": _diag_literal([1.0, 0.0])}},
        "1", ["chi", "--channel"], 2,
    ),
    "mac": (
        {"kind": "mac", "alphabets": [["0", "1"], ["0", "1"]], "dims": 2,
         "states": {f"{y1},{y2}": _diag_literal([0.5, 0.5]) for y1 in "01" for y2 in "01"}},
        "1,1", ["region", "mac", "--mac-channel"], 2,
    ),
    "broadcast": (
        {"kind": "broadcast", "alphabet": ["0", "1"], "dims": {"y1": 2, "y2": 2},
         "states": {"0": _diag_literal([0.25] * 4), "1": _diag_literal([1.0, 0.0, 0.0, 0.0])}},
        "1", ["region", "broadcast", "--bc-channel"], 4,
    ),
}


def _break(data, kind, key, dim, mutation):
    """Make one malformation of a valid channel file; key names its second state."""
    states = data["states"]
    if mutation == "missing":
        del states[key]
    elif mutation == "wrong-dim":
        states[key] = _diag_literal([1 / 3] * 3)
    elif mutation == "bad-literal":
        states[key][0][0] = [1.0]
    elif mutation == "declared-dims":
        data["dims"] = {"y1": 2, "y2": 3} if kind == "broadcast" else 3
    elif mutation == "negative":
        states[key] = _diag_literal([1.2, -0.2] + [0.0] * (dim - 2))
    else:
        states[key] = _diag_literal([1.1 / dim] * dim)  # trace 1.1


# The error line of each malformed file, as the per-kind parsers gave it
# before they shared one state-table routine.
_ERRORS = {
    ("cq", "missing"): "missing state for input '1'",
    ("cq", "wrong-dim"): "state for input '1' has dimension 3, expected 2",
    ("cq", "bad-literal"): "state for input '1': entry (0,0) is not a [re, im] pair",
    ("cq", "declared-dims"): "declared dims 3 but states have dimension 2",
    ("cq", "negative"): "state for input '1' has negative eigenvalue -2.000e-01",
    ("cq", "trace"): "state for input '1' has trace 1.1, expected 1",
    ("mac", "missing"): "missing state for input pair '1,1'",
    ("mac", "wrong-dim"): "state for input pair ('1', '1') has dimension 3, expected 2",
    ("mac", "bad-literal"): "state for pair '1,1': entry (0,0) is not a [re, im] pair",
    ("mac", "declared-dims"): "declared dims 3 but states have dimension 2",
    ("mac", "negative"): "state for input pair ('1', '1') has negative eigenvalue -2.000e-01",
    ("mac", "trace"): "state for input pair ('1', '1') has trace 1.1, expected 1",
    ("broadcast", "missing"): "missing joint state for input '1'",
    ("broadcast", "wrong-dim"): "joint state for input '1' has dimension 3, expected 4",
    ("broadcast", "bad-literal"): "joint state for input '1': entry (0,0) is not a [re, im] pair",
    ("broadcast", "declared-dims"): "joint state for input '0' has dimension 4, expected 6",
    ("broadcast", "negative"): "joint state for input '1' has negative eigenvalue -2.000e-01",
    ("broadcast", "trace"): "joint state for input '1' has trace 1.1, expected 1",
}


def _write_json(tmp_path, data):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("kind, mutation", sorted(_ERRORS))
def test_malformed_channel_file_error_lines(tmp_path, capsys, kind, mutation):
    data, key, argv, dim = _CHANNEL_FILES[kind]
    data = json.loads(json.dumps(data))
    _break(data, kind, key, dim, mutation)
    assert main([*argv, _write_json(tmp_path, data)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {_ERRORS[kind, mutation]}\n"


def test_mac_file_whose_pair_keys_collide_exits_one(tmp_path, capsys):
    # four pairs, but ("0,1", "2") and ("0", "1,2") share the key "0,1,2":
    # the file's three keys cannot say which state belongs to which pair
    keys = ["0,1,2", "0,1,1,2", "0,2"]
    states = {key: matrix_to_literal(basis_state(i, 4)) for i, key in enumerate(keys)}
    path = tmp_path / "mac.json"
    path.write_text(json.dumps({"kind": "mac", "alphabets": [["0,1", "0"], ["2", "1,2"]], "states": states}))
    assert main(["region", "mac", "--mac-channel", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: input pairs ('0,1', '2') and ('0', '1,2') share the state key '0,1,2'\n"
    )


@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_broadcast_dims_follow_the_config_integer_rule(tmp_path, capsys, value):
    # a fractional, boolean or string receiver dimension is refused, not
    # truncated to an int; an integral float reads as its integer
    data, _, argv, _ = _CHANNEL_FILES["broadcast"]
    data = json.loads(json.dumps(data))
    data["dims"]["y1"] = value
    assert main([*argv, _write_json(tmp_path, data)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: broadcast 'dims' entries must be integers, got {{'y1': {value!r}, 'y2': 2}}\n"
    data["dims"]["y1"] = 2.0
    assert main([*argv, _write_json(tmp_path, data)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind, labels, message",
    [
        ("mac", [["0", "0"], ["0", "1"]], "first sender alphabet labels must be distinct"),
        ("mac", [["0", "1"], ["1", "1"]], "second sender alphabet labels must be distinct"),
        ("broadcast", ["0", "0"], "broadcast alphabet labels must be distinct"),
        ("cq", ["1", "1"], "channel alphabet labels must be distinct"),
    ],
)
def test_repeated_labels_in_a_channel_file_exit_one(tmp_path, capsys, kind, labels, message):
    data, _, argv, _ = _CHANNEL_FILES[kind]
    data = json.loads(json.dumps(data))
    data["alphabets" if kind == "mac" else "alphabet"] = labels
    path = _write_json(tmp_path, data)
    assert main([*argv, path]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    if kind == "broadcast":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "M1": 2, "M2": 2}))
        assert main(["simulate", "--config", str(cfg), "--bc-channel", path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_region_bidirectional_checks_both_files_first(tmp_path, capsys, monkeypatch):
    import cqrelay.cli as cli
    import cqrelay.regions as regions

    def boom(*args, **kwargs):
        raise RuntimeError("a region was computed before the inputs were checked")

    monkeypatch.setattr(regions, "mac_region", boom)
    monkeypatch.setattr(cli, "mac_region", boom)
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    missing = str(tmp_path / "missing.json")
    for extra in ([], ["--bc-channel", mac], ["--bc-channel", missing]):
        assert main(["region", "bidirectional", "--mac-channel", mac, *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_lemmas(tmp_path, capsys):
    rc = main(["verify", "lemmas", "--trials", "30", "--seed", "11"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["all_hold"] is True
    for entry in got["lemmas"].values():
        assert entry["all_hold"] is True
        assert entry["trials"] == 30


def test_verify_projectors_small(tmp_path, capsys):
    rc = main(["verify", "projectors", "--n", "2,3", "--alpha", "0.5", "--seed", "2"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["all_hold"] is True
    assert got["projectors"]["state"]["failures"] == 0
    assert got["projectors"]["conditional"]["failures"] == 0
    assert got["projectors"]["conditional"]["cross_capture_checked"] > 0


def test_verify_injected_failure_exits_two(tmp_path, capsys):
    rc = main(
        [
            "verify", "lemmas", "--trials", "5",
            "--inject-verification-failure",
        ]
    )
    assert rc == 2
    got = json.loads(capsys.readouterr().out)
    assert got["all_hold"] is False
    assert got["injected"]["all_hold"] is False


def test_verify_flag_parse_errors(capsys):
    assert main(["verify", "projectors", "--n", "2.5"]) == 1
    assert main(["verify", "projectors", "--alpha", "zebra"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["inf", "nan", "1e400", "2,inf", "3.0", "0"])
def test_block_lengths_follow_the_integer_flag_rule(capsys, value):
    # inf, nan and 1e400 used to die in round() with a traceback
    assert main(["verify", "projectors", "--n", value]) == 1
    assert_one_error_line(capsys)


def test_block_lengths_are_read_exactly(capsys):
    # 2^53 + 1 has no float: a float round trip would read 2^53
    assert main(["verify", "projectors", "--n", "9007199254740993", "--alpha", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "n=9007199254740993," in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("dist", ["nan,nan", "nan,1", "inf,0"])
def test_chi_refuses_weights_that_are_not_finite(tmp_path, capsys, dist):
    # nan,nan used to pass the distribution checks and die in the entropy
    channel = write_channel(tmp_path, "depolarized", "c.json")
    assert main(["chi", "--channel", channel, "--dist", dist]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("family, dim", [("orthogonal", 102), ("depolarized", 102), ("constant", 725)])
def test_generate_refuses_channels_beyond_the_entry_limit(tmp_path, capsys, family, dim):
    # the letter states would hold more than 2^20 entries; the refusal comes
    # before any of them is built, and no file is written
    out = tmp_path / "big.json"
    tracemalloc.start()
    try:
        assert main(["generate", family, "--dim", str(dim), "--out", str(out)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not out.exists()
    assert_one_error_line(capsys)


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_count_flags_must_be_positive_integers(tmp_path, capsys, value):
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    for argv in (
        ["region", "mac", "--mac-channel", mac, "--grid-k", value],
        ["verify", "lemmas", "--trials", value],
        ["generate", "depolarized", "--dim", value],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
def test_seed_flag_must_be_nonnegative_integer(capsys, value):
    assert main(["verify", "lemmas", "--trials", "5", "--seed", value]) == 1
    assert_one_error_line(capsys)


def test_seed_flag_accepts_zero(capsys):
    assert main(["verify", "lemmas", "--trials", "5", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["all_hold"] is True


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e-300", "1e300"])
def test_verify_alpha_must_have_a_representable_square(capsys, alpha):
    # nan and inf are not thresholds; 1e-300 squared underflows to 0 and
    # 1e300 squared overflows, which used to end in a traceback
    assert main(["verify", "projectors", "--n", "2,3", "--alpha", alpha]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "kwargs",
    [{"ns": [], "alphas": [0.5]}, {"ns": [2], "alphas": []}, {"ns": [2], "alphas": [0.5], "instances": 0}],
)
def test_projector_verification_is_never_vacuous(kwargs):
    from cqrelay.cli import _verify_projectors

    with pytest.raises(InvalidInputError):
        _verify_projectors(preset="fixed", seed=1, **kwargs)


def test_count_table_beyond_byte_limit_exits_three(capsys):
    # a count-class table at n = 10^6 would hold 10^6 rows of exact
    # multinomials with 10^5-byte integers; its size is refused before any
    # table or per-class array is built
    tracemalloc.start()
    try:
        assert main(["verify", "projectors", "--n", "1000000", "--alpha", "0.5"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert_one_error_line(capsys)


def test_region_grid_beyond_byte_limit_exits_three(tmp_path, capsys):
    # the adder MAC's (G1, G2, 3, 3) stack at grid 100000 would take 1.3 TiB
    # and the broadcast (G, 2, 2) stack at grid 10^7 640 MB; the guard
    # refuses each before any grid array is built
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    for kind, k in (("mac", 100000), ("bidirectional", 100000), ("broadcast", 10**7)):
        argv = ["region", kind, "--mac-channel", mac, "--bc-channel", bc, "--grid-k", str(k)]
        tracemalloc.start()
        try:
            assert main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert_one_error_line(capsys)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_noiseless_ok(tmp_path, capsys):
    bc = write_channel(tmp_path, "product-broadcast", "bc.json", ["--p", "0.0"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "M1": 2, "M2": 2, "alpha": 0.5, "seed": 1}))
    rc = main(["simulate", "--config", str(cfg), "--bc-channel", bc])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["status"] == "ok"
    assert got["decode"]["all_correct"] is True


def test_simulate_default_epsilon_reaches_two_messages(tmp_path, capsys):
    # the defaulted epsilon puts n (chi2 - 2 eps) at 1 up to roundoff
    bc = write_channel(tmp_path, "product-broadcast", "bc.json", ["--p", "0.1"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "alpha": 0.3, "seed": 2, "delta_code": 0.3, "dist": [0.6, 0.4]}))
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["status"] == "ok"
    assert (got["sizes"]["sampled_m1"], got["sizes"]["sampled_m2"]) == (5, 2)


def test_non_finite_output_is_an_error_not_infinity(tmp_path, capsys, monkeypatch):
    with pytest.raises(RelayError):
        dump_json({"x": float("nan")})
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "M1": 2, "M2": 2}))
    monkeypatch.setattr(cli, "end_to_end_broadcast_sim", lambda bc, config: {"eps": -math.inf})
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 1
    assert_one_error_line(capsys)


def test_simulate_input_errors(tmp_path, capsys):
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    ortho = write_channel(tmp_path, "orthogonal", "ortho.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "M1": 2, "M2": 2}))
    assert main(["simulate", "--config", str(tmp_path / "no.json"), "--bc-channel", bc]) == 1
    assert main(["simulate", "--config", str(cfg), "--bc-channel", ortho]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--bc-channel", bc]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n": 4, "mystery": 1}))
    assert main(["simulate", "--config", str(unknown), "--bc-channel", bc]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "override",
    [
        {"n": "6"},
        {"seed": -1},
        {"dist": "ab"},
        {"dist": [0.5, "x"]},
        {"dist": [0.5, float("nan")]},
        {"M1": 2.5},
        {"M2": True},
        {"max_seed_attempts": True},
        {"dim_cap": 64.5},
        {"alpha": "0.3"},
        {"preset": ["fixed"]},
    ],
    ids=lambda o: json.dumps(o),
)
def test_simulate_rejects_mistyped_config(tmp_path, capsys, override):
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "M1": 2, "M2": 2, "alpha": 0.3, **override}))
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 1
    assert_one_error_line(capsys)


def test_simulate_accepts_integral_floats(tmp_path, capsys):
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    outputs = []
    for n, m in ((4, 2), (4.0, 2.0)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n, "M1": m, "M2": m, "alpha": 0.3, "seed": 3}))
        assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_simulate_accepts_a_huge_delta_code(tmp_path, capsys):
    # delta_code = 1e308 admits every word: the typical set's windows come
    # from the window predicate, with no float-to-int step that overflows
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "M1": 2, "M2": 2, "alpha": 0.5, "seed": 1, "delta_code": 1e308}))
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 4


def test_simulate_resource_limit_exits_three(tmp_path, capsys):
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"n": 13, "M1": 2, "M2": 2, "alpha": 0.5}))
    rc = main(["simulate", "--config", str(cfg), "--bc-channel", bc])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_simulate_checks_the_cap_before_sampling(tmp_path, capsys):
    # a codebook word of length 10^12 would need a 7 TiB draw; the cap check
    # refuses the block length before any word is sampled
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"n": 10**12, "M1": 2, "M2": 2}))
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 3
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "config, code",
    [
        ({"n": 2000, "epsilon": -1}, 3),  # the dimension cap, before any size is formed
        ({"n": 4, "epsilon": -10}, 1),  # derived sizes of about 2^80 each
        ({"n": 4, "epsilon": -1e300}, 1),  # an exponent beyond float range
        ({"n": 4, "M1": 1_000_000_000, "M2": 2}, 1),
        ({"n": 4, "M1": 2, "M2": 17}, 1),  # one past receiver 2's 2^4 dimensions
        ({"n": 4, "M1": 17, "M2": 17, "scheme": "modular-sum"}, 1),
        ({"n": 4, "epsilon": -0.5, "scheme": "modular-sum"}, 1),  # a common set of 2^6.85
    ],
)
def test_simulate_refuses_message_sets_beyond_the_detection_dimension(tmp_path, capsys, monkeypatch, config, code):
    # a group on a d^n-dimensional space distinguishes at most d^n messages;
    # the refusal comes before any codebook is sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a codebook")

    monkeypatch.setattr(coding, "sample_codebook", no_sampling)
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == code
    assert_one_error_line(capsys)


@pytest.mark.parametrize("epsilon, size", [(0.0, 7), (-0.05, 9)])
def test_modular_sum_sizes_an_explicit_nonpositive_epsilon(tmp_path, capsys, epsilon, size):
    # only a defaulted epsilon <= 0 leaves the weaker receiver without 2
    # messages; an explicit one sizes the common set by the shared rule
    bc = write_channel(tmp_path, "product-broadcast", "bc.json", ("--p", "0.1"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "epsilon": epsilon, "scheme": "modular-sum", "max_seed_attempts": 1}))
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 0
    assert json.loads(capsys.readouterr().out)["sizes"] == {"common": size}


def test_simulate_accepts_message_sets_that_fill_the_detection_dimension(tmp_path, capsys):
    bc = write_channel(tmp_path, "product-broadcast", "bc.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "M1": 4, "M2": 4, "alpha": 0.5, "max_seed_attempts": 1}))
    assert main(["simulate", "--config", str(cfg), "--bc-channel", bc]) == 0
    assert json.loads(capsys.readouterr().out)["sizes"]["sampled_m1"] == 4


# ---------------------------------------------------------------------------
# argument plumbing and determinism
# ---------------------------------------------------------------------------


def test_bad_invocations_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["region", "mystery-kind"]) == 1
    assert main(["chi"]) == 1
    capsys.readouterr()


def test_reruns_are_byte_identical(tmp_path):
    mac = write_channel(tmp_path, "adder-mac", "mac.json")
    bc = write_channel(tmp_path, "product-broadcast", "bc.json", ["--p", "0.2"])
    ortho = write_channel(tmp_path, "orthogonal", "ortho.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "M1": 2, "M2": 2, "alpha": 0.3, "seed": 3}))
    commands = {
        "chi": ["chi", "--channel", ortho, "--format", "json"],
        "region": [
            "region", "bidirectional", "--mac-channel", mac,
            "--bc-channel", bc, "--grid-k", "8",
        ],
        "verify": ["verify", "lemmas", "--trials", "10", "--seed", "7"],
        "simulate": ["simulate", "--config", str(cfg), "--bc-channel", bc],
        "generate": ["generate", "overlap-pair"],
    }
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
