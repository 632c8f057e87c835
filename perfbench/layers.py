"""What the traced run wraps, and how its spans become per-layer metrics.

Layers are the package's modules.  Busy seconds (``_s``) are the union of the
intervals of the named spans, so a recursive or nested call is not counted
twice.  Self seconds subtract the time covered by child spans.
"""

from __future__ import annotations

import json

from spans import busy_time, self_times

PACKAGE = "cqrelay"
LAYERS = ("operators", "channels", "typicality", "lemmas", "regions", "coding", "cli")
METHODS = {
    ("channels", "CQChannel"): ("word_state",),
    ("typicality", "TypicalSet"): ("__contains__",),
    ("typicality", "TypicalProjector"): ("matrix", "included_vectors"),
    ("typicality", "ConditionalTypicalProjector"): ("matrix", "included_vectors"),
}


def _detection_sizes(args, result):
    dims = [p.dim ** p.n for p in result.projectors.values()]
    ranks = sum(sum(by_pair.values()) for by_pair in result.cond_ranks.values())
    return {"N": max(dims), "K": ranks}


def _hull_sizes(args, result):
    return {"in": len(args[0]), "out": len(result)}


def _membership(args, result):
    return 1 if result else 0


PROBES = {
    "coding.build_detection_operators": _detection_sizes,
    "regions.convex_hull": _hull_sizes,
    "typicality.TypicalSet.__contains__": _membership,
}

# metric -> span names whose busy seconds it reports
BUSY = {
    "cli.main_s": ("cli.main",),
    "channels.load_channel_s": ("channels.load_channel",),
    "channels.word_state_s": ("channels.CQChannel.word_state",),
    "typicality.typical_projector_s": ("typicality.typical_projector",),
    "typicality.conditional_typical_projector_s": ("typicality.conditional_typical_projector",),
    "typicality.projector_matrix_s": (
        "typicality.TypicalProjector.matrix",
        "typicality.ConditionalTypicalProjector.matrix",
    ),
    "typicality.included_vectors_s": (
        "typicality.TypicalProjector.included_vectors",
        "typicality.ConditionalTypicalProjector.included_vectors",
    ),
    "typicality.verify_state_s": ("typicality.verify_state_projector_bounds",),
    "typicality.verify_conditional_s": ("typicality.verify_conditional_projector_bounds",),
    "typicality.cross_capture_s": ("typicality.cross_capture_stats",),
    "operators.pseudo_sqrt_inverse_s": ("operators.pseudo_sqrt_inverse",),
    "operators.validate_positive_s": ("operators.validate_positive",),
    "operators.trace_pair_s": ("operators.trace_pair",),
    "coding.sample_codebook_s": ("coding.sample_codebook",),
    "coding.detection_s": ("coding.build_detection_operators",),
    "coding.srm_s": ("coding.build_square_root_decoder",),
    "coding.errors_s": ("coding.average_errors",),
    "coding.expurgate_s": ("coding.expurgate",),
    "coding.decode_s": ("coding.decode_with_side_info",),
    "regions.mac_region_s": ("regions.mac_region",),
    "regions.broadcast_region_s": ("regions.broadcast_region",),
    "regions.intersect_s": ("regions.intersect_regions",),
    "regions.hull_s": ("regions.convex_hull",),
    "lemmas.sweep_s": ("lemmas.sweep_lemma_checks",),
    "lemmas.check_s": (
        "lemmas.check_measurement_on_close_states",
        "lemmas.check_tender_operator",
        "lemmas.check_hayashi_nagaoka",
    ),
}

# metric -> span names whose calls it counts
CALLS = {
    "channels.word_state_calls": ("channels.CQChannel.word_state",),
    "typicality.conditional_typical_projector_calls": ("typicality.conditional_typical_projector",),
    "typicality.spectrum_stats_calls": ("typicality.spectrum_projector_stats",),
    "typicality.typical_set_tests": ("typicality.TypicalSet.__contains__",),
    "operators.pseudo_sqrt_inverse_calls": ("operators.pseudo_sqrt_inverse",),
    "operators.validate_positive_calls": ("operators.validate_positive",),
    "operators.validate_density_calls": ("operators.validate_density",),
    "operators.trace_pair_calls": ("operators.trace_pair",),
    "regions.hull_calls": ("regions.convex_hull",),
    "lemmas.check_calls": BUSY["lemmas.check_s"],
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_metrics(trace: dict, stdout: str, workload: str, untraced_main_s: float) -> dict:
    """Per-layer metrics of one traced CLI call.

    ``trace`` is the JSON the traced child wrote; ``stdout`` is the CLI's
    output, from which the deterministic counters are read;
    ``untraced_main_s`` is the same call's time in ``main`` with tracing off.
    """
    names = trace["names"]
    spans = [(names[s[0]], s[1], s[2], s[3]) for s in trace["spans"]]
    attrs = [s[4] for s in trace["spans"]]
    by_name: dict[str, list] = {}
    for span, attr in zip(spans, attrs):
        by_name.setdefault(span[0], []).append((span, attr))

    def named(wanted):
        return [hit for name in wanted for hit in by_name.get(name, ())]

    out = {metric: busy_time([s for s, _ in named(wanted)], set(wanted)) for metric, wanted in BUSY.items()}
    for metric, wanted in CALLS.items():
        out[metric] = len(named(wanted))

    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s[0].split(".", 1)[0] == layer)
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["regions.mac_region_self_s"] = sum(t for s, t in zip(spans, own) if s[0] == "regions.mac_region")
    out["cli.stdout_bytes"] = len(stdout.encode("utf-8"))
    out["trace.overhead_ratio"] = _ratio(out["cli.main_s"], untraced_main_s)

    hits = [a for _, a in named(("typicality.TypicalSet.__contains__",))]
    out["typicality.sample_accept_ratio"] = _ratio(sum(hits), len(hits))
    hulls = [a for _, a in named(("regions.convex_hull",))]
    out["regions.hull_points_in"] = sum(h["in"] for h in hulls)
    out["regions.hull_vertices_out"] = sum(h["out"] for h in hulls)
    out["regions.hull_keep_ratio"] = _ratio(out["regions.hull_vertices_out"], out["regions.hull_points_in"])
    out["regions.hull_share"] = _ratio(out["regions.hull_s"], out["cli.main_s"])
    sizes = [a for _, a in named(("coding.build_detection_operators",))]
    out["coding.hilbert_dim"] = max((a["N"] for a in sizes), default=0)
    out["coding.cond_rank_total"] = sizes[-1]["K"] if sizes else 0
    out["coding.srm_share"] = _ratio(out["coding.srm_s"], out["cli.main_s"])

    kernel = trace["kernel"]
    for key in ("eig_calls", "eig_big_calls", "eig_n3", "eig_bytes", "max_dim"):
        out[f"operators.{key}"] = kernel[key]
    out.update(output_counters(workload, stdout))
    return out


def output_counters(workload: str, stdout: str) -> dict:
    """Counters read from the CLI's report, so they repeat exactly run to run."""
    out = {"coding.attempts": 0, "coding.accept_ratio": 0.0, "coding.subpovm_margin_max": 0.0, "lemmas.failures": 0}
    if workload == "sim-n10":
        report = json.loads(stdout)
        attempts = report["attempts_used"]
        out["coding.attempts"] = attempts
        out["coding.accept_ratio"] = _ratio(1 if report["status"] == "ok" else 0, attempts)
        margins = [v for by_msg in report["subpovm_margins"].values() for v in by_msg.values()]
        out["coding.subpovm_margin_max"] = max(margins)
    elif workload == "verify-all":
        report = json.loads(stdout)
        out["lemmas.failures"] = sum(entry["failures"] for entry in report["lemmas"].values())
    return out
