"""Benchmark of the cqrelay CLI.

    python3 perfbench/run.py --workload sim-n10 --seed 11 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run from the root of a source checkout; the package is imported from ./src.
Each CLI call is its own process (``perfbench/launch.py``) with one BLAS and
OpenMP thread, so the program never competes with the harness for a core.

Workloads, each a real CLI call on inputs the CLI itself generates:

* ``sim-n10``: ``simulate`` at n=10, M1=M2=2, alpha=0.3 on the product
  broadcast channel (p=0.1); the workload seed is the config seed (default 11).
  ``coding`` and ``operators`` work on 1024x1024 matrices.
* ``region-bidir``: ``region bidirectional`` on the adder MAC and the same
  broadcast channel at the default grid, as CSV.  Only ``regions`` does real
  work.  The inputs are deterministic: the seed is unused.
* ``verify-all``: ``verify all`` with its defaults and ``--seed`` set to the
  workload seed (default 20240801).  ``lemmas`` and ``typicality`` make many
  small calls, the opposite regime to ``sim-n10``.

``--trace 0`` repeats the call until ``--seconds`` are used and reports the
end-to-end metrics as medians over the run: ``wall_s`` (spawn to exit),
``setup_s`` (time before ``cqrelay.cli.main`` starts, over the calls and an
import-only probe ahead of each), ``peak_rss_mb`` (the child's ru_maxrss)
and ``pass_rate`` (1 - failed/attempted).  The record line gives the median,
quartiles, minimum and count of every sample set.
``--trace 1`` alternates plain and traced calls and reports the per-layer
metrics of ``layers.py``.  Every call's output is checked (``checks.py``); at
a workload's default seed it is also compared with ``reference/``.
``--workload all`` runs every workload in both modes and then the negative
controls, which must be counted as failed.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from launch import MARK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
THREADS = "1"
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    OPENBLAS_NUM_THREADS=THREADS,
    OMP_NUM_THREADS=THREADS,
    MKL_NUM_THREADS=THREADS,
)
CALL_TIMEOUT_S = 150
NEGATIVE_CONTROL_SHIFT = {"sim-n10": 1e-6, "verify-all": 1e-6, "region-bidir": 1e-5}


@dataclass(frozen=True)
class Workload:
    default_seed: int | None  # None: the inputs do not depend on a seed
    reference: str


WORKLOADS = {
    "sim-n10": Workload(11, "sim-n10.json"),
    "region-bidir": Workload(None, "region-bidir.csv"),
    "verify-all": Workload(20240801, "verify-all.json"),
}


@dataclass(frozen=True)
class Call:
    returncode: int
    stdout: str
    wall_s: float
    setup_s: float
    main_s: float
    peak_rss_mb: float


def run_cli(mode: str, args: list[str], workdir: Path) -> Call:
    """One child process; timed from spawn to exit, with its own rusage."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py"), mode, "--", *args],
            stdout=out,
            stderr=err,
            env=CHILD_ENV,
            cwd=workdir,
        )
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {}
    for line in err_path.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith(MARK + " "):
            _, key, value = line.split()
            marks[key] = float(value)
    nan = float("nan")
    start, end = marks.get("start", nan), marks.get("end", nan)
    return Call(
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8"),
        wall_s=exited - spawned,
        setup_s=start - spawned,
        main_s=end - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def make_inputs(workload: str, seed: int | None, workdir: Path) -> list[str]:
    """Write the workload's input files with the CLI; return the call's arguments."""
    for family, name in (("product-broadcast", "bc.json"), ("adder-mac", "mac.json")):
        call = run_cli("run", ["generate", family, "--p", "0.1", "--out", name], workdir)
        if call.returncode != 0:
            raise RuntimeError(f"generate {family} exited with {call.returncode}")
    if workload == "sim-n10":
        config = {"n": 10, "M1": 2, "M2": 2, "alpha": 0.3, "seed": seed}
        (workdir / "sim.json").write_text(json.dumps(config), encoding="utf-8")
        return ["simulate", "--config", "sim.json", "--bc-channel", "bc.json"]
    if workload == "region-bidir":
        return ["region", "bidirectional", "--mac-channel", "mac.json", "--bc-channel", "bc.json", "--format", "csv"]
    return ["verify", "all", "--seed", str(seed)]


def summary(values: list[float]) -> dict:
    """Median, quartiles, minimum and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "n": len(values)}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def environment(workdir: Path) -> dict:
    probe = run_cli("probe", [], workdir)
    if probe.returncode != 0:
        raise RuntimeError(f"version probe exited with {probe.returncode}")
    env = json.loads(probe.stdout)
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        machine=platform.machine(),
        blas_threads={k: CHILD_ENV[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        commit=commit(),
        src_sha256=source_digest(),
    )
    return env


class Run:
    """Calls of one workload at one seed, with their checks."""

    def __init__(self, workload: str, seed: int | None, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.args = make_inputs(workload, seed, workdir)
        spec = WORKLOADS[workload]
        at_default = spec.default_seed is None or seed == spec.default_seed
        self.reference = (BENCH / "reference" / spec.reference).read_text(encoding="utf-8") if at_default else None
        self.first_stdout = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, mode: str = "run") -> Call:
        call = run_cli(mode, self.args, self.workdir)
        problems = checks.check_output(self.workload, call.returncode, call.stdout, self.reference)
        if self.first_stdout is None:
            self.first_stdout = call.stdout
        elif call.stdout != self.first_stdout:
            problems.append("stdout differs from the first call with the same arguments")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{mode}: {p}" for p in problems[:5])
        return call


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end samples: calls, each after an import-only probe, until the time is used."""
    deadline = time.monotonic() + seconds
    setup: list[float] = []
    calls: list[Call] = []
    step_s = 0.0
    while not calls or time.monotonic() + step_s <= deadline:
        began = time.monotonic()
        setup.append(run_cli("probe", [], run.workdir).setup_s)
        calls.append(run.call())
        setup.append(calls[-1].setup_s)
        step_s = max(step_s, time.monotonic() - began)
    samples = {
        "wall_s": summary([c.wall_s for c in calls]),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([c.peak_rss_mb for c in calls]),
    }
    values = {name: s["median"] for name, s in samples.items()}
    values["pass_rate"] = 1.0 - run.failed / run.attempted
    return values, samples


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: pairs of a plain and a traced call until the time is used."""
    deadline = time.monotonic() + seconds
    spans_path = run.workdir / "spans.json"
    per_pair: list[dict] = []
    pair_s = 0.0
    while not per_pair or time.monotonic() + pair_s <= deadline:
        began = time.monotonic()
        plain = run.call()
        traced = run.call(f"trace={spans_path}")
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        per_pair.append(layers.trace_metrics(trace, traced.stdout, run.workload, plain.main_s))
        pair_s = max(pair_s, time.monotonic() - began)
    values = {key: statistics.median(pair[key] for pair in per_pair) for key in per_pair[0]}
    return values, {"pairs": len(per_pair)}


def metric_units(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def benchmark(workload: str, seed: int | None, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    workload_seed = None if spec.default_seed is None else (spec.default_seed if seed is None else seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        env = environment(workdir)
        run = Run(workload, workload_seed, workdir)
        values, samples = (measure_traced if trace else measure)(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    record = {
        "workload": workload,
        "workload_seed": workload_seed if workload_seed is not None else "unused (deterministic inputs)",
        "reference_compared": run.reference is not None,
        "trace": int(trace),
        "seconds": seconds,
        "environment": env,
        "samples": samples,
        "fail_rate": run.failed / run.attempted,
        "problems": run.problems,
    }
    print(f"== {workload} (trace {int(trace)}, workload seed {record['workload_seed']})")
    for name in units:
        line = f"  {name} = {values[name]:.6g} {units[name]}"
        if name in samples:
            s = samples[name]
            line += f"  (median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, min {s['min']:.6g}, n={s['n']})"
        print(line)
    print(f"  fail_rate = {record['fail_rate']:.6g} ({run.failed} of {run.attempted} calls failed)")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def negative_controls() -> list[str]:
    """Cases the checks must count as failed; returns those that slipped through."""
    missed = []
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="control-", dir=WORK))
    try:
        injected = run_cli("run", ["verify", "all", "--inject-verification-failure"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not checks.check_output("verify-all", injected.returncode, injected.stdout):
        missed.append("verify all --inject-verification-failure passed the checks")
    print(f"== negative controls\n  verify all --inject-verification-failure: exit {injected.returncode}")
    for workload, spec in WORKLOADS.items():
        reference = (BENCH / "reference" / spec.reference).read_text(encoding="utf-8")
        shift = NEGATIVE_CONTROL_SHIFT[workload]
        perturb = checks.perturb_csv if workload == "region-bidir" else checks.perturb_json
        if checks.check_output(workload, 0, reference, reference):
            missed.append(f"{workload}: the reference fails its own checks")
        if not checks.check_output(workload, 0, perturb(reference, shift), reference):
            missed.append(f"{workload}: a reference shifted by {shift} passed the checks")
        print(f"  {workload}: reference passes, reference shifted by {shift} fails")
    for problem in missed:
        print(f"  MISSED {problem}")
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, help="workload seed; each workload's default when omitted")
    parser.add_argument("--seconds", type=float, default=35.0, help="time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cqrelay" / "cli.py").is_file():
        print(f"error: no cqrelay sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {
            (name, trace): benchmark(name, args.seed, args.seconds, trace)
            for name in WORKLOADS
            for trace in (False, True)
        }
        missed = negative_controls()
        result = {
            "correct": not missed and all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for (name, _), r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
