"""In-memory span recorder that traces cqrelay from outside the package.

The tracer replaces functions with timing wrappers by assigning module and
class attributes; nothing in the package itself is edited.  A function that
other modules import by name (``from .operators import pseudo_sqrt_inverse``)
is rebound in every module that holds it, so calls through any alias are seen.
``uninstall`` puts every original object back.

Spans are kept as ``[name_id, start, end, parent_index, attrs]`` lists and
written out once, after the traced call returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types


class Tracer:
    """Records nested spans of wrapped functions for one run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.kernel = {"eig_calls": 0, "eig_big_calls": 0, "eig_n3": 0, "eig_bytes": 0, "max_dim": 0}
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, probe=None):
        """Return a wrapper of ``fn`` that records a span named ``name``.

        ``probe(args, result)``, when given, turns the call's arguments and
        return value into the span's ``attrs`` (sizes, ranks, hit flags).
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                record[4] = probe(args, result)
            return result

        return wrapper

    def count_eig(self, fn):
        """Wrap a numpy eigensolver so each call adds to the kernel counters.

        Counts are computed from the argument's shape: a stacked (..., N, N)
        argument counts as one call per matrix.
        """
        kernel = self.kernel

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if len(shape) >= 2:
                n = int(shape[-1])
                batch = 1
                for extent in shape[:-2]:
                    batch *= int(extent)
                kernel["eig_calls"] += batch
                if n >= 256:
                    kernel["eig_big_calls"] += batch
                kernel["eig_n3"] += batch * n**3
                kernel["eig_bytes"] += batch * n * n * a.itemsize
                kernel["max_dim"] = max(kernel["max_dim"], n)
            return fn(a, *args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember the original for ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run_id": self.run_id, "names": self.names, "spans": self.spans, "kernel": self.kernel},
                fh,
            )


def install(tracer: Tracer, package: str, layers, methods: dict, probes: dict) -> None:
    """Wrap the public functions of ``package.<layer>`` for each layer.

    Spans are named ``<layer>.<function>``.  ``methods`` maps ``(layer, class
    name)`` to method names, traced as ``<layer>.<class>.<method>``;
    ``probes`` maps span names to probe callables.  Every module of the
    package that binds a wrapped function, under any name, is rebound to the
    wrapper.
    """
    wrappers = {}
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                span = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(span, obj, probes.get(span)))
    for (layer, class_name), names in methods.items():
        cls = getattr(sys.modules[f"{package}.{layer}"], class_name)
        for attr in names:
            span = f"{layer}.{class_name}.{attr}"
            tracer.patch(cls, attr, tracer.wrap(span, cls.__dict__[attr], probes.get(span)))
    modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer.patch(module, attr, hit[1])
    import numpy.linalg

    for attr in ("eigh", "eigvalsh"):
        tracer.patch(numpy.linalg, attr, tracer.count_eig(getattr(numpy.linalg, attr)))


# ---------------------------------------------------------------------------
# Span arithmetic.  Spans here are (name, start, end, parent_index) tuples.
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = union_length(
            (max(s, start), min(e, end)) for s, e in children.get(i, ()) if min(e, end) > max(s, start)
        )
        out.append((end - start) - covered)
    return out


def busy_time(spans, names) -> float:
    """Seconds during which at least one span with a name in ``names`` was open."""
    return union_length((start, end) for name, start, end, _ in spans if name in names)
