"""Child process for one benchmarked ``cqrelay`` CLI call.

    python3 perfbench/launch.py MODE -- CLI-ARGUMENTS...

MODE is ``run`` (a plain call), ``probe`` (import the CLI, print the
versions of Python, numpy and its BLAS as JSON, and exit before ``main``), or
``trace=FILE`` (a call with the package's public functions wrapped by
``spans.Tracer``; the spans are written to FILE after ``main`` returns).

On stderr, ahead of the CLI's own output, the child writes the monotonic clock
at which ``cqrelay.cli.main`` starts, and afterwards the time it returned.  The
parent subtracts its spawn time from the first to get the set-up time:
interpreter start plus the numpy and cqrelay imports.
"""

import sys
import time

MARK = "perfbench-clock"


def _versions() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main(argv: list[str]) -> int:
    mode, cli_args = argv[0], argv[2:]
    from cqrelay import cli

    started = time.monotonic()
    sys.stderr.write(f"{MARK} start {started!r}\n")
    if mode == "probe":
        import json

        print(json.dumps(_versions(), sort_keys=True))
        return 0
    tracer = None
    if mode.startswith("trace="):
        import layers
        import spans

        spans_path = mode[len("trace="):]
        tracer = spans.Tracer(run_id=spans_path)
        spans.install(tracer, layers.PACKAGE, layers.LAYERS, layers.METHODS, layers.PROBES)
    try:
        code = cli.main(cli_args)
    finally:
        ended = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(f"{MARK} end {ended!r}\n")
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
