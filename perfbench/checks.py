"""Output checks that decide whether a benchmarked CLI call failed.

Each workload has invariants that hold for any seed.  At a workload's default
seed the output is also compared with a reference recorded from the code that
defined the benchmark: numbers agree within an absolute tolerance (last-bit
shifts of numerical results are allowed), every other field matches exactly.
"""

from __future__ import annotations

import json
import math

JSON_ATOL = 1e-9
CSV_ATOL = 1e-6
MARGIN_MAX = 1e-9
REGION_BLOCKS = ("mac", "broadcast", "intersection")


def _json_problems(stdout: str):
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_sim(stdout: str) -> list[str]:
    report, problems = _json_problems(stdout)
    if problems:
        return problems
    if report.get("status") != "ok":
        return [f"status is {report.get('status')!r}"]
    if not report["decode"]["all_correct"]:
        problems.append("decode.all_correct is false")
    if not report["errors"]["decomposition_ok"]:
        problems.append("errors.decomposition_ok is false")
    for flag in ("within_two_delta", "within_four_delta"):
        if not report["expurgation"][flag]:
            problems.append(f"expurgation.{flag} is false")
    margin = max(v for by_msg in report["subpovm_margins"].values() for v in by_msg.values())
    if not margin <= MARGIN_MAX:
        problems.append(f"largest sub-POVM margin {margin!r} exceeds {MARGIN_MAX}")
    return problems


def check_verify(stdout: str) -> list[str]:
    report, problems = _json_problems(stdout)
    if problems:
        return problems
    if report.get("all_hold") is not True:
        problems.append("all_hold is not true")
    for group in ("lemmas", "projectors"):
        for name, entry in report[group].items():
            if entry["failures"] != 0:
                problems.append(f"{group}.{name} has {entry['failures']} failures")
    return problems


def parse_region_csv(stdout: str) -> dict:
    """``# name`` blocks of ``R1,R2`` rows -> {name: [(r1, r2), ...]}."""
    blocks: dict[str, list] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("# "):
            current = blocks.setdefault(line[2:], [])
        elif line != "R1,R2" and current is not None:
            r1, r2 = line.split(",")
            current.append((float(r1), float(r2)))
    return blocks


def check_region(stdout: str) -> list[str]:
    try:
        blocks = parse_region_csv(stdout)
    except ValueError as exc:
        return [f"region CSV does not parse: {exc}"]
    problems = []
    if sorted(blocks) != sorted(REGION_BLOCKS):
        problems.append(f"region blocks {sorted(blocks)}, expected {sorted(REGION_BLOCKS)}")
    for name, vertices in blocks.items():
        if len(vertices) < 3:
            problems.append(f"{name} polygon has {len(vertices)} vertices")
    return problems


INVARIANTS = {"sim-n10": check_sim, "region-bidir": check_region, "verify-all": check_verify}


def json_differences(ref, got, atol: float = JSON_ATOL, path: str = "$") -> list[str]:
    """Where ``got`` differs from ``ref``: numbers beyond ``atol``, anything else at all."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return [] if ref is got else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if math.isfinite(ref) and math.isfinite(got):
            return [] if abs(ref - got) <= atol else [f"{path}: {got!r} differs from {ref!r} by more than {atol}"]
        return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [p for key in sorted(ref) for p in json_differences(ref[key], got[key], atol, f"{path}.{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in json_differences(r, g, atol, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


def csv_differences(ref: str, got: str, atol: float = CSV_ATOL) -> list[str]:
    ref_lines, got_lines = ref.splitlines(), got.splitlines()
    if len(ref_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, expected {len(ref_lines)}"]
    problems = []
    for i, (r, g) in enumerate(zip(ref_lines, got_lines), 1):
        if r == g:
            continue
        try:
            r_vals = [float(x) for x in r.split(",")]
            g_vals = [float(x) for x in g.split(",")]
        except ValueError:
            problems.append(f"line {i}: {g!r} != {r!r}")
            continue
        # 1e-12 of slack lets a value rounded the other way at the 6th decimal pass.
        if len(r_vals) != len(g_vals) or any(abs(a - b) > atol + 1e-12 for a, b in zip(r_vals, g_vals)):
            problems.append(f"line {i}: {g!r} differs from {r!r} by more than {atol}")
    return problems


def reference_differences(workload: str, reference: str, stdout: str) -> list[str]:
    if workload == "region-bidir":
        return csv_differences(reference, stdout)
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    return json_differences(json.loads(reference), got)


def check_output(workload: str, returncode: int, stdout: str, reference: str | None = None) -> list[str]:
    """All problems with one CLI call's result; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        problems = INVARIANTS[workload](stdout)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems = [f"output lacks an expected field: {exc!r}"]
    if not problems and reference is not None:
        problems = reference_differences(workload, reference, stdout)
    return problems


def perturb_json(text: str, delta: float) -> str:
    """The JSON document with its first non-integer number shifted by ``delta``."""
    doc = json.loads(text)

    def walk(node):
        items = sorted(node.items()) if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            if isinstance(value, float) and not isinstance(value, bool):
                node[key] = value + delta
                return True
            if walk(value):
                return True
        return False

    if not walk(doc):
        raise ValueError("no float to perturb")
    return json.dumps(doc, indent=2, sort_keys=True)


def perturb_csv(text: str, delta: float) -> str:
    """The region CSV with the first value of its last row shifted by ``delta``."""
    lines = text.splitlines()
    r1, r2 = lines[-1].split(",")
    lines[-1] = f"{float(r1) + delta:.6f},{r2}"
    return "\n".join(lines) + "\n"
