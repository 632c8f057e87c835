"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

REFERENCES = {
    "sim-n10": "sim-n10.json",
    "region-bidir": "region-bidir.csv",
    "verify-all": "verify-all.json",
}


def _reference(workload):
    return (BENCH / "reference" / REFERENCES[workload]).read_text(encoding="utf-8")


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9];
    # c [6, 7] and d [6.5, 8] overlap inside b and are covered once.
    synthetic = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("g", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 3),
        ("d", 6.5, 8.0, 3),
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    assert spans.busy_time(synthetic, {"a", "b"}) == pytest.approx(7.0)
    assert spans.busy_time(synthetic, {"c", "d"}) == pytest.approx(2.0)
    assert spans.busy_time(synthetic, {"root", "g"}) == pytest.approx(10.0)


@pytest.mark.parametrize("workload", sorted(REFERENCES))
def test_checks_pass_the_reference_and_fail_a_perturbed_copy(workload):
    reference = _reference(workload)
    assert checks.check_output(workload, 0, reference, reference) == []
    if workload == "region-bidir":
        assert checks.check_output(workload, 0, checks.perturb_csv(reference, 1e-5), reference)
    else:
        assert checks.check_output(workload, 0, checks.perturb_json(reference, 1e-12), reference) == []
        assert checks.check_output(workload, 0, checks.perturb_json(reference, 1e-6), reference)
    assert checks.check_output(workload, 2, reference, reference)


def test_invariants_fail_without_a_reference():
    sim = json.loads(_reference("sim-n10"))
    sim["subpovm_margins"]["receiver1"]["0"] = 1e-6
    assert checks.check_output("sim-n10", 0, json.dumps(sim))
    verify = json.loads(_reference("verify-all"))
    verify["lemmas"]["tender"]["failures"] = 1
    assert checks.check_output("verify-all", 0, json.dumps(verify))
    region = _reference("region-bidir").split("# intersection")[0]
    assert checks.check_output("region-bidir", 0, region)


def _bindings():
    """Every attribute the tracer may replace, by (owner, name)."""
    import numpy.linalg

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "cqrelay" or name.startswith("cqrelay."):
            out.update({(name, attr): obj for attr, obj in vars(module).items()})
    for (layer, cls_name), methods in layers.METHODS.items():
        cls = getattr(sys.modules[f"cqrelay.{layer}"], cls_name)
        out.update({(cls_name, attr): cls.__dict__[attr] for attr in methods})
    out.update({("numpy.linalg", attr): getattr(numpy.linalg, attr) for attr in ("eigh", "eigvalsh")})
    return out


def test_traced_run_restores_every_wrapped_function(capsys):
    from cqrelay import cli, coding, operators

    before = _bindings()
    tracer = spans.Tracer("test")
    spans.install(tracer, layers.PACKAGE, layers.LAYERS, layers.METHODS, layers.PROBES)
    try:
        assert coding.pseudo_sqrt_inverse is not before[("cqrelay.coding", "pseudo_sqrt_inverse")]
        assert coding.pseudo_sqrt_inverse is operators.pseudo_sqrt_inverse
        assert cli.main(["verify", "lemmas", "--trials", "3"]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    stdout = capsys.readouterr().out
    trace = {"names": tracer.names, "spans": tracer.spans, "kernel": tracer.kernel}
    metrics = layers.trace_metrics(trace, stdout, "verify-all", untraced_main_s=1.0)
    assert metrics["lemmas.check_calls"] == 9
    assert metrics["lemmas.failures"] == 0
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["cli.main_s"])
    assert metrics["operators.eig_calls"] > 0
