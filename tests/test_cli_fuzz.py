"""Fuzzing of `simulate` configs, channel files and flags through the CLI.

Whatever a config, a channel file or a flag holds, the CLI exits with a
code in {0, 1, 2, 3}; a failure prints exactly one `error:` line and
nothing on stdout, and a success prints strict JSON (no NaN or Infinity).
No warning may be raised either.
Block lengths stay at n <= 4 and seed attempts at <= 2, so each example runs
in well under a second.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cqrelay.channels import (
    adder_mac_channel,
    channel_to_jsonable,
    depolarized_channel,
    orthogonal_pure_channel,
    product_broadcast_channel,
)
from cqrelay.cli import main

# a warning would be one more stderr line beside the `error:` line
pytestmark = pytest.mark.filterwarnings("error")

_ANY_REAL = st.one_of(st.floats(), st.integers(-(10**20), 10**20))


def _mostly(valid, invalid):
    """valid three times as often as invalid."""
    return st.one_of(valid, valid, valid, invalid)


CONFIGS = st.fixed_dictionaries(
    {
        "n": st.integers(1, 4),
        "max_seed_attempts": st.integers(1, 2),
    },
    optional={
        "epsilon": _mostly(st.floats(-2.0, 2.0), _ANY_REAL),
        "M1": _mostly(st.integers(-2, 6), st.integers(17, 10**12)),
        "M2": _mostly(st.integers(-2, 6), st.integers(17, 10**12)),
        "alpha": _mostly(st.floats(0.05, 3.0), _ANY_REAL),
        "delta_code": _mostly(st.floats(0.0, 2.0), _ANY_REAL),
        "delta": _mostly(st.floats(0.0, 1.0), _ANY_REAL),
        "seed": st.integers(0, 50),
        "scheme": st.sampled_from(["proof-construction"] * 3 + ["modular-sum"] * 3 + ["relay"]),
        "preset": st.sampled_from(["fixed", "sqrt", "sqrt-scaled", "cubic"]),
        "dist": _mostly(st.floats(0.0, 1.0).map(lambda p: [p, 1.0 - p]), st.lists(st.floats(), max_size=3)),
        "dim_cap": _mostly(st.integers(16, 10**6), st.integers(-1, 15)),
    },
)


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@pytest.fixture(scope="module")
def bc_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "bc.json"
    assert main(["generate", "product-broadcast", "--p", "0.1", "--out", str(path)]) == 0
    return path


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=CONFIGS)
@example(config={"n": 4, "max_seed_attempts": 1, "epsilon": -1e300})
@example(config={"n": 4, "max_seed_attempts": 1, "epsilon": 1e308})
@example(config={"n": 4, "max_seed_attempts": 1, "epsilon": -10.0})
@example(config={"n": 4, "max_seed_attempts": 1, "M1": 10**9, "M2": 2})
def test_simulate_config_fuzz(bc_path, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    _assert_clean_exit(["simulate", "--config", str(cfg), "--bc-channel", str(bc_path)])


def _assert_clean_exit(argv):
    """Run the CLI in-process: a code in {0, 1, 2, 3}, strict JSON on success,
    a single error line otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_strict)
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


# ---------------------------------------------------------------------------
# Channel files and flags: each example breaks one part of a valid file.
# ---------------------------------------------------------------------------

_DIMS = st.one_of(
    st.integers(-2, 5),
    st.floats(-3.0, 5.0),
    st.sampled_from([2.0, 1e300, "2", None, True, [2], {"d": 2}]),
)
_ENTRY = st.one_of(st.floats(-1.5, 1.5), st.floats(), st.sampled_from([None, "0", True, [0.0]]))
_LITERAL = st.one_of(
    # random matrices: ragged, non-square, non-Hermitian or not positive
    st.lists(st.lists(st.lists(_ENTRY, min_size=2, max_size=2), min_size=1, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=2, max_size=2), min_size=2, max_size=2),
    st.sampled_from([[], [[]], "state", 0.5, [[[0.5, 0.0]]], [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]]),
)
_LABELS = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", ""]), max_size=3),
    st.sampled_from([None, "01", [0, 1], ["0", "0"], ["1", "0"]]),
)


def _put(data, item):
    key, value = item
    data[key] = value
    return data


def _set(key, values):
    return st.tuples(st.just(_put), st.tuples(st.just(key), values))


def _set_state(data, literal):
    label = sorted(data["states"])[0]
    data["states"][label] = literal
    return data


def _drop_state(data, label):
    data["states"].pop(label, None)
    return data


_BREAKS = st.one_of(
    _set("dims", _DIMS),
    _set("alphabet", _LABELS),
    _set("kind", st.sampled_from(["cq", "broadcast", "mac", "relay", None])),
    _set("states", st.sampled_from([None, [], {}, "x"])),
    st.tuples(st.just(_set_state), _LITERAL),
    st.tuples(st.just(_drop_state), st.sampled_from(["0", "1"])),
)
_BROADCAST_BREAKS = st.one_of(
    _BREAKS,
    _set(
        "dims",
        st.one_of(
            st.fixed_dictionaries({"y1": _DIMS, "y2": _DIMS}),
            st.sampled_from([{"y1": 2}, {"y1": 2, "y2": 2, "y3": 1}, {"y1": 1, "y2": 4}, {"y1": 4, "y2": 1}]),
        ),
    ),
)


def _channel_file(tmp_path, channel, broken, truncate):
    """The channel's file with one part broken (none when broken is None),
    and its text cut at truncate."""
    data = channel_to_jsonable(channel)
    if broken is not None:
        breaker, value = broken
        data = breaker(data, value)
    text = json.dumps(data)
    path = tmp_path / "channel.json"
    path.write_text(text[:truncate] if truncate is not None else text)
    return str(path)


_TRUNCATE = st.one_of(st.none(), st.none(), st.none(), st.integers(0, 60))
_FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(
    broken=st.one_of(st.none(), _BREAKS, _BREAKS),
    truncate=_TRUNCATE,
    dist=st.one_of(
        st.none(),
        st.sampled_from(["0.5,0.5", "1,0", "0.3,0.7,0", "-1,2", "nan,1", "inf,0", "0,0", ",", "1e400,1"]),
        st.text("0123456789.,-e", max_size=8),
    ),
    fmt=st.sampled_from(["json", "json", "json", "xml"]),
)
# an entry near the float limit overflows the Hermiticity check
@example(broken=(_set_state, [[[0.0, 1.7976931348623157e308]]]), truncate=None, dist=None, fmt="json")
# the text alphabet above cannot spell nan, which no distribution check caught
@example(broken=None, truncate=None, dist="nan,nan", fmt="json")
def test_chi_channel_file_and_flag_fuzz(tmp_path, broken, truncate, dist, fmt):
    path = _channel_file(tmp_path, depolarized_channel(0.1, 2), broken, truncate)
    argv = ["chi", "--channel", path, "--format", fmt]
    _assert_clean_exit(argv if dist is None else argv + ["--dist", dist])


@_FUZZ
@given(
    broken=st.one_of(st.none(), _BROADCAST_BREAKS, _BROADCAST_BREAKS),
    truncate=_TRUNCATE,
    grid_k=st.one_of(
        st.none(),
        st.integers(-2, 12).map(str),
        st.sampled_from(["1.5", "x", "", "1e3", "0x10", "10000000", "99999999999999999999"]),
    ),
)
# grids whose size, or whose one-letter count, does not fit an index-sized integer
@example(broken=None, truncate=None, grid_k="99999999999999999999")
@example(broken=(_put, ("alphabet", ["0"])), truncate=None, grid_k="99999999999999999999")
def test_region_broadcast_channel_file_and_flag_fuzz(tmp_path, broken, truncate, grid_k):
    bc = product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2))
    argv = ["region", "broadcast", "--bc-channel", _channel_file(tmp_path, bc, broken, truncate), "--format", "json"]
    _assert_clean_exit(argv if grid_k is None else argv + ["--grid-k", grid_k])


@_FUZZ
@given(broken=st.one_of(st.none(), _BROADCAST_BREAKS, _BROADCAST_BREAKS), truncate=_TRUNCATE)
@example(broken=(_set_state, [[[0.0, 1.7976931348623157e308]]]), truncate=None)
def test_simulate_channel_file_fuzz(tmp_path, broken, truncate):
    bc = product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "M1": 2, "M2": 2, "alpha": 0.5, "max_seed_attempts": 1}))
    path = _channel_file(tmp_path, bc, broken, truncate)
    _assert_clean_exit(["simulate", "--config", str(cfg), "--bc-channel", path])


# MAC files: sender alphabets whose labels hold commas, so that two pairs can
# spell one "y1,y2" state key, and files that lack a pair's state
_MAC_LABELS = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", "0,1", "1,", ",", ""]), max_size=3),
    st.sampled_from([None, "01", [0, 1], ["0", "0"]]),
)
_MAC_BREAKS = st.one_of(
    _set("dims", _DIMS),
    _set("alphabets", st.one_of(st.lists(_MAC_LABELS, max_size=3), st.sampled_from([None, "ab", [["0"]]]))),
    _set("alphabets", st.sampled_from([[["0,1", "0"], ["2", "1,2"]], [["0", "0,"], [",1", "1"]], [["0,1"], ["1"]]])),
    _set("kind", st.sampled_from(["cq", "broadcast", "mac", None])),
    _set("states", st.sampled_from([None, [], {}, "x"])),
    st.tuples(st.just(_set_state), _LITERAL),
    st.tuples(st.just(_drop_state), st.sampled_from(["0,0", "0,1", "1,1"])),
)
_GRID_K = st.one_of(st.none(), st.integers(-1, 6).map(str), st.sampled_from(["1.5", "x", "1e3", "99999999999999999999"]))


@_FUZZ
@given(broken=st.one_of(st.none(), _MAC_BREAKS, _MAC_BREAKS), truncate=_TRUNCATE, grid_k=_GRID_K)
@example(broken=(_put, ("alphabets", [["0,1", "0"], ["2", "1,2"]])), truncate=None, grid_k="4")
def test_region_mac_channel_file_and_flag_fuzz(tmp_path, broken, truncate, grid_k):
    argv = ["region", "mac", "--mac-channel", _channel_file(tmp_path, adder_mac_channel(), broken, truncate)]
    _assert_clean_exit(argv + ["--format", "json", "--grid-k", grid_k or "8"])


@_FUZZ
@given(
    mac_broken=st.one_of(st.none(), _MAC_BREAKS),
    bc_broken=st.one_of(st.none(), _BROADCAST_BREAKS),
    grid_k=_GRID_K,
)
def test_region_bidirectional_channel_file_fuzz(tmp_path, mac_broken, bc_broken, grid_k):
    bc = product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2))
    (tmp_path / "mac").mkdir(exist_ok=True)
    (tmp_path / "bc").mkdir(exist_ok=True)
    argv = [
        "region", "bidirectional",
        "--mac-channel", _channel_file(tmp_path / "mac", adder_mac_channel(), mac_broken, None),
        "--bc-channel", _channel_file(tmp_path / "bc", bc, bc_broken, None),
    ]
    _assert_clean_exit(argv + ["--format", "json", "--grid-k", grid_k or "8"])


# verify flags: block lengths and counts stay small, so a valid run is quick
_INT_TOKENS = st.sampled_from(["", ",", "1.5", "2.0", "inf", "nan", "1e400", "-1", "0", "0x10", "abc", " 2"])


@_FUZZ
@given(
    target=st.sampled_from(["lemmas", "projectors", "all"]),
    trials=_mostly(st.integers(1, 4).map(str), _INT_TOKENS),
    seed=_mostly(st.integers(0, 10**20).map(str), _INT_TOKENS),
    n=_mostly(st.lists(st.integers(1, 4), min_size=1, max_size=2).map(lambda v: ",".join(map(str, v))), _INT_TOKENS),
    alpha=_mostly(st.floats(0.1, 3.0).map(repr), st.sampled_from(["nan", "inf", "1e-300", "1e300", "zebra", ""])),
    preset=st.sampled_from(["fixed", "sqrt", "cubic"]),
)
@example(target="projectors", trials="1", seed="0", n="inf", alpha="1.0", preset="fixed")
@example(target="projectors", trials="1", seed="0", n="9007199254740993", alpha="1.0", preset="fixed")
def test_verify_flag_fuzz(target, trials, seed, n, alpha, preset):
    _assert_clean_exit(
        ["verify", target, "--trials", trials, "--seed", seed, "--n", n, "--alpha", alpha, "--preset", preset]
    )
