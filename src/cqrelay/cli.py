"""Command-line front end: chi, region, verify, simulate, generate.

Every subcommand is deterministic for fixed flags, files, and seed, and the
emitted bytes are stable across runs (sorted JSON keys, fixed float formats).
Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 resource
limit exceeded.

A call compiles only the modules its command runs. Importing this module
registers coding, lemmas, regions and typicality without running them; each
runs on its first attribute access. main runs the named command's modules
(_COMMAND_MODULES) before build_parser imports argparse. numpy, errors,
operators and channels load eagerly, because every command runs them.
"""

from __future__ import annotations

import importlib.util
import sys
from typing import TYPE_CHECKING

import numpy as np

from .channels import (
    BroadcastCQChannel,
    CQChannel,
    MACCQChannel,
    _load_json,
    adder_mac_channel,
    channel_to_jsonable,
    conditional_entropy,
    constant_channel,
    depolarized_channel,
    dump_json,
    load_channel,
    orthogonal_pure_channel,
    output_state,
    overlap_pair_channel,
    product_broadcast_channel,
)
from .errors import InvalidInputError, RelayError, ResourceLimitError
from .operators import ProbabilityDistribution, _require_bytes, von_neumann_entropy

if TYPE_CHECKING:
    import argparse


def _lazy(name: str):
    """cqrelay.<name>, registered in sys.modules and bound on the package as
    an import would, but not run until its first attribute access."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


coding, lemmas, regions, typicality = map(_lazy, ("coding", "lemmas", "regions", "typicality"))

# command -> the lazy modules it runs.  main runs them before argparse is
# imported: with no bytecode cache a module compiles when it runs, coding's
# compile sets the CLI's peak, and argparse (about 0.3 MB) loaded ahead of it
# would add to that peak.  simulate's coding runs typicality itself.
_COMMAND_MODULES = {"region": (regions,), "verify": (lemmas, typicality), "simulate": (coding,)}

_DEFAULT_PROJECTOR_NS = "2,3,4,5,6,7,8,9,10"
_DEFAULT_PROJECTOR_ALPHAS = "0.5,1,2"
_PROJECTOR_INSTANCES = 20


def _emit(text: str, out_path: str | None) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(data)
        except OSError as exc:
            raise InvalidInputError(f"cannot write output file {out_path!r}: {exc}") from None
    else:
        sys.stdout.write(data)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(dump_json(obj), out_path)


def _integer(text: str, least: int) -> int:
    """The one rule for integer flag tokens: int(text), refused below least.

    int reads decimal integer text exactly, however long; a float token
    such as 2.0, 1e3 or inf is not an integer token.
    """
    import argparse

    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts, resolutions and dimensions."""
    return _integer(text, 1)


def _nonnegative_int(text: str) -> int:
    """argparse type for seeds."""
    return _integer(text, 0)


def _parse_dist(text: str, labels) -> ProbabilityDistribution:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        raise InvalidInputError(f"cannot parse distribution {text!r}") from None
    if len(weights) != len(labels):
        raise InvalidInputError(
            f"distribution has {len(weights)} weights but the alphabet has {len(labels)} letters"
        )
    return ProbabilityDistribution(tuple(labels), np.asarray(weights, dtype=float))


def _parse_list(text: str, flag: str, parse) -> list:
    """The comma-separated entries of a list flag, each read by parse."""
    import argparse

    try:
        values = [parse(part) for part in text.split(",") if part.strip() != ""]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise InvalidInputError(f"cannot parse {flag} value {text!r}: {exc}") from None
    if not values:
        raise InvalidInputError(f"{flag} needs at least one value")
    return values


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def cmd_chi(args) -> int:
    channel = load_channel(args.channel)
    if not isinstance(channel, CQChannel):
        raise InvalidInputError(
            "chi expects a single-receiver channel file; extract a marginal first"
        )
    if args.dist:
        dist = _parse_dist(args.dist, channel.alphabet)
    else:
        dist = ProbabilityDistribution.uniform(channel.alphabet)
    s_out = von_neumann_entropy(output_state(channel, dist))
    s_cond = conditional_entropy(channel, dist)
    values = {"chi_bits": s_out - s_cond, "output_entropy_bits": s_out, "conditional_entropy_bits": s_cond}
    if args.format == "json":
        _emit_json(values, args.out)
    else:
        _emit("\n".join(f"{name} {value:.9f}" for name, value in values.items()), args.out)
    return 0


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _default_grid_k(*alphabets) -> int:
    return 64 if max(len(a) for a in alphabets) <= 2 else 16


def _region_csv(region) -> str:
    lines = ["R1,R2"]
    lines.extend(f"{v[0]:.6f},{v[1]:.6f}" for v in region.vertices)
    return "\n".join(lines)


def _region_jsonable(region) -> dict:
    return {
        "vertices": [[round(v[0], 9), round(v[1], 9)] for v in region.vertices],
        "halfplanes": [[round(c, 9) for c in plane] for plane in region.halfplanes],
        "max_sum_rate": round(region.max_sum_rate(), 9),
    }


def _load_region_channel(path, flag: str, kind: type, what: str):
    if not path:
        raise InvalidInputError(f"this region kind needs {flag}")
    channel = load_channel(path)
    if not isinstance(channel, kind):
        raise InvalidInputError(f"{path!r} does not hold {what}")
    return channel


def cmd_region(args) -> int:
    # Load and type-check every channel file before computing any region.
    mac = bc = None
    if args.kind != "broadcast":
        mac = _load_region_channel(args.mac_channel, "--mac-channel", MACCQChannel, "a two-sender channel")
    if args.kind != "mac":
        bc = _load_region_channel(args.bc_channel, "--bc-channel", BroadcastCQChannel, "a broadcast channel")
    named = []
    if mac is not None:
        k = args.grid_k or _default_grid_k(*mac.alphabets)
        grid = regions.DistributionGrid(tuple(mac.alphabets[0]), k)
        named.append(("mac", regions.mac_region(mac, grid, args.variant)))
    if bc is not None:
        k = args.grid_k or _default_grid_k(bc.alphabet)
        named.append(("broadcast", regions.broadcast_region(bc, regions.DistributionGrid(tuple(bc.alphabet), k))))
    if len(named) == 2:
        named.append(("intersection", regions.intersect_regions(named[0][1], named[1][1])))
    # one region is written bare; several are keyed, or headed, by name
    if args.format == "json":
        out = {name: _region_jsonable(r) for name, r in named}
        _emit_json(out if len(named) > 1 else out[named[0][0]], args.out)
    else:
        blocks = [_region_csv(r) if len(named) == 1 else f"# {name}\n{_region_csv(r)}" for name, r in named]
        _emit("\n".join(blocks), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _drawn_states(draws, idx) -> np.ndarray:
    """Instances idx as one (k, states, d, d) stack; draws[i] holds instance i's gaussian_draws."""
    return lemmas.densities(np.array([draws[i] for i in idx]))


def _verify_projectors(ns, alphas, preset, seed) -> dict:
    """Projector reports for every (n, alpha) pair, _PROJECTOR_INSTANCES at a time.

    Each (n, alpha) group draws its instances in order (for a conditional
    instance, both letter states and then its typical word), then scores
    them with one report call per output dimension.
    """
    if not ns or not alphas:
        raise InvalidInputError("projector verification needs at least one block length and one alpha")
    preset = typicality.resolve_preset(preset)
    for n in ns:
        for alpha in alphas:
            typicality.threshold_for(alpha, n, preset)
    base = np.random.SeedSequence(seed)
    state_stream, cond_stream = base.spawn(2)
    dims = [2 if i % 2 == 0 else 3 for i in range(_PROJECTOR_INSTANCES)]
    def state_reports():
        rng = np.random.default_rng(state_stream)
        for n in ns:
            for alpha in alphas:
                draws = [lemmas.gaussian_draws(rng, dim) for dim in dims]
                yield from lemmas._by_dim(
                    dims,
                    lambda idx: typicality.verify_state_projector_bounds(
                        _drawn_states(draws, idx)[:, 0], n, alpha, preset
                    ),
                )

    def conditional_reports():
        rng = np.random.default_rng(cond_stream)
        dist = ProbabilityDistribution(("0", "1"), np.array([0.5, 0.5]))
        for n in ns:
            tset = typicality.TypicalSet(dist, n, 0.5)
            for alpha in alphas:
                draws, words = [], []
                for dim in dims:
                    draws.append(lemmas.gaussian_draws(rng, dim, count=2))  # both letter states
                    words.append(tset.sample(rng, 10_000))
                # letter states are checked once, inside the report call
                yield from lemmas._by_dim(
                    dims,
                    lambda idx: typicality.verify_conditional_projector_bounds(
                        _drawn_states(draws, idx), [words[i] for i in idx], dist, alpha, preset
                    ),
                )

    state, _ = _projector_summary(state_reports(), reference_flag=preset == "fixed")
    conditional, cross_checked = _projector_summary(conditional_reports(), reference_flag=False)
    conditional["cross_capture_checked"] = cross_checked
    return {"state": state, "conditional": conditional}


def _projector_summary(reports, reference_flag: bool) -> tuple[dict, int]:
    """Counts and extremes of a stream of projector reports, and how many of
    them checked the cross capture.  With reference_flag, a report whose
    reference capture bound fails counts as a failure too."""
    count = failures = cross_checked = 0
    min_margin = float("inf")
    max_k = 0.0
    for report in reports:
        count += 1
        min_margin = min(min_margin, report.measured["capture"] - report.reference_bounds["capture"])
        max_k = max(max_k, report.empirical_K)
        ok = report.all_provable_hold()
        if reference_flag:
            ok = ok and report.flags["reference_capture"]
        if not ok:
            failures += 1
        if "provable_cross_capture" in report.flags:
            cross_checked += 1
    summary = {
        "instances": count,
        "failures": failures,
        "min_reference_capture_margin": min_margin,
        "max_empirical_K": max_k,
        "all_hold": failures == 0,
    }
    return summary, cross_checked


def cmd_verify(args) -> int:
    summary = {}
    ok = True
    if args.targets in ("lemmas", "all"):
        sweeps = lemmas.sweep_lemma_checks(trials=args.trials, seed=args.seed)
        summary["lemmas"] = sweeps
        ok = ok and all(entry["all_hold"] for entry in sweeps.values())
    if args.targets in ("projectors", "all"):
        ns = _parse_list(args.n, "--n", _positive_int)
        alphas = _parse_list(args.alpha, "--alpha", float)
        projectors = _verify_projectors(ns, alphas, args.preset, args.seed)
        summary["projectors"] = projectors
        ok = ok and all(entry["all_hold"] for entry in projectors.values())
    if args.inject_verification_failure:
        summary["injected"] = {"all_hold": False, "note": "negative control"}
        ok = False
    summary["all_hold"] = ok
    _emit_json(summary, args.out)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = coding.SimConfig.from_dict(_load_json(args.config, "config"))
    bc = load_channel(args.bc_channel)
    if not isinstance(bc, BroadcastCQChannel):
        raise InvalidInputError(f"{args.bc_channel!r} does not hold a broadcast channel")
    report = coding.end_to_end_broadcast_sim(bc, config)
    _emit_json(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

# family -> its channel, built from the flags
_FAMILIES = {
    "orthogonal": lambda args: orthogonal_pure_channel(args.dim),
    "overlap-pair": lambda args: overlap_pair_channel(),
    "depolarized": lambda args: depolarized_channel(args.p, args.dim),
    "constant": lambda args: constant_channel(dim=args.dim),
    "adder-mac": lambda args: adder_mac_channel(),
    "product-broadcast": lambda args: product_broadcast_channel(
        orthogonal_pure_channel(2), depolarized_channel(args.p, 2)
    ),
}

# generate holds about this many bytes per entry of the letter states while
# it builds the channel and writes it as JSON (measured 414-480)
_GENERATE_ENTRY_BYTES = 512


def cmd_generate(args) -> int:
    letters = {"orthogonal": args.dim, "depolarized": args.dim, "constant": 2}.get(args.family, 0)
    _require_bytes(letters * args.dim**2 * _GENERATE_ENTRY_BYTES, f"the {args.family} channel at --dim {args.dim}")
    _emit_json(channel_to_jsonable(_FAMILIES[args.family](args)), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument parser whose usage errors map to exit code 1."""

        def error(self, message):
            raise InvalidInputError(message)

    parser = _Parser(prog="cqrelay", description="Two-phase relay channel toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_chi = sub.add_parser("chi", help="Holevo information of a channel file")
    p_chi.add_argument("--channel", required=True, help="channel JSON file (kind 'cq')")
    p_chi.add_argument("--dist", help="comma-separated input weights; uniform when omitted")
    p_chi.add_argument("--format", choices=("text", "json"), default="text")
    p_chi.add_argument("--out", help="output file; stdout when omitted")
    p_chi.set_defaults(func=cmd_chi)

    p_region = sub.add_parser("region", help="rate region polygons as CSV or JSON")
    p_region.add_argument("kind", choices=("mac", "broadcast", "bidirectional"))
    p_region.add_argument("--mac-channel", help="two-sender channel JSON file")
    p_region.add_argument("--bc-channel", help="broadcast channel JSON file")
    p_region.add_argument(
        "--grid-k",
        type=_positive_int,
        help="simplex grid resolution; default 64 for binary alphabets, 16 otherwise",
    )
    p_region.add_argument("--variant", choices=("conditional", "as-written"), default="conditional")
    p_region.add_argument("--format", choices=("csv", "json"), default="csv")
    p_region.add_argument("--out", help="output file; stdout when omitted")
    p_region.set_defaults(func=cmd_region)

    p_verify = sub.add_parser("verify", help="run inequality verification sweeps")
    p_verify.add_argument("targets", choices=("lemmas", "projectors", "all"))
    p_verify.add_argument("--trials", type=_positive_int, default=1000, help="instances per lemma sweep")
    p_verify.add_argument("--seed", type=_nonnegative_int, default=20240801)
    p_verify.add_argument(
        "--n", default=_DEFAULT_PROJECTOR_NS, help="comma-separated block lengths for projectors"
    )
    p_verify.add_argument(
        "--alpha", default=_DEFAULT_PROJECTOR_ALPHAS, help="comma-separated threshold parameters"
    )
    p_verify.add_argument("--preset", choices=("fixed", "sqrt"), default="fixed")
    p_verify.add_argument("--out", help="output file; stdout when omitted")
    p_verify.add_argument(
        "--inject-verification-failure",
        action="store_true",
        help=argparse.SUPPRESS,
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run the broadcast-phase coding pipeline")
    p_sim.add_argument("--config", required=True, help="simulation config JSON file")
    p_sim.add_argument("--bc-channel", required=True, help="broadcast channel JSON file")
    p_sim.add_argument("--out", help="output file; stdout when omitted")
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("generate", help="write a canonical test channel file")
    p_gen.add_argument("family", choices=_FAMILIES)
    p_gen.add_argument("--p", type=float, default=0.1, help="depolarizing weight where relevant")
    p_gen.add_argument("--dim", type=_positive_int, default=2, help="output dimension where relevant")
    p_gen.add_argument("--out", help="output file; stdout when omitted")
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for module in _COMMAND_MODULES.get(argv[0] if argv else None, ()):
        vars(module)  # a lazy module runs on its first attribute access
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except RelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimitError) else 1


if __name__ == "__main__":
    sys.exit(main())
