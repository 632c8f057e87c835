"""Fuzzing of `simulate` configs through the CLI.

Whatever a config holds, `cqrelay simulate` exits with a code in
{0, 1, 2, 3}; a failure prints exactly one `error:` line and nothing on
stdout, and a success prints strict JSON (no NaN or Infinity).  Block
lengths stay at n <= 4 and seed attempts at <= 2, so each example runs in
well under a second.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cqrelay.cli import main

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(cfg), "--bc-channel", str(bc_path)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_strict)
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
