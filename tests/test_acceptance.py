"""Acceptance gate: one test per release criterion, each printing a visible
PASS/FAIL line.  Every quantity is recomputed here against test-local oracles
or pinned closed forms; tolerances are stated inline next to each check.
"""

import json
import math

import numpy as np

from cqrelay.channels import (
    CQChannel,
    adder_mac_channel,
    depolarized_channel,
    holevo_chi,
    orthogonal_pure_channel,
    overlap_pair_channel,
    product_broadcast_channel,
    product_extension,
)
from cqrelay.cli import main as cli_main
from cqrelay.coding import (
    ErrorReport,
    average_errors,
    build_detection_operators,
    build_square_root_decoder,
    end_to_end_broadcast_sim,
    expurgate,
    modular_sum_decode,
    modular_sum_encode,
    sample_codebook,
)
from cqrelay.lemmas import sweep_lemma_checks
from cqrelay.operators import ProbabilityDistribution
from cqrelay.regions import DistributionGrid, broadcast_region, intersect_regions, mac_region
from cqrelay.typicality import (
    TypicalSet,
    verify_conditional_projector_bounds,
    verify_state_projector_bounds,
)


def announce(capsys, num, label, checks):
    ok = all(flag for flag, _ in checks)
    with capsys.disabled():
        print(f"\n[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'} ({len(checks)} checks)")
    for flag, msg in checks:
        assert flag, msg


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_binary_channel(rng, dim):
    return CQChannel(("0", "1"), {"0": random_density(rng, dim), "1": random_density(rng, dim)})


def sample_typical_word(rng, dist, n, delta):
    tset = TypicalSet(dist, n, delta)
    labels = list(dist.labels)
    while True:
        word = tuple(labels[i] for i in rng.choice(len(labels), size=n, p=dist.weights))
        if word in tset:
            return word


# ---------------------------------------------------------------------------
# 1. Holevo functional pins
# ---------------------------------------------------------------------------


def test_criterion_1_holevo_pins(capsys):
    uniform = ProbabilityDistribution.uniform(("0", "1"))
    chi_ortho = holevo_chi(orthogonal_pure_channel(), uniform)
    same = CQChannel(("0", "1"), {"0": np.eye(2) / 2, "1": np.eye(2) / 2})
    chi_same = holevo_chi(same, uniform)
    # the two pure states with overlap 2^-1/2 mix to eigenvalues (1 +/- 2^-1/2)/2
    overlap = overlap_pair_channel()
    chi_overlap = holevo_chi(overlap, ProbabilityDistribution.uniform(overlap.alphabet))
    oracle = h2((1 + 2 ** -0.5) / 2)
    checks = [
        (abs(chi_ortho - 1.0) <= 1e-9, f"orthogonal pair chi {chi_ortho} differs from 1.0"),
        (abs(chi_same) <= 1e-12, f"identical states chi {chi_same} differs from 0"),
        (abs(chi_overlap - oracle) <= 1e-9, f"overlap pair chi {chi_overlap} vs oracle {oracle}"),
    ]
    announce(capsys, 1, "holevo pins", checks)


# ---------------------------------------------------------------------------
# 2. additivity of chi under product extension
# ---------------------------------------------------------------------------


def test_criterion_2_chi_additivity(capsys):
    rng = np.random.default_rng(20240802)
    worst = 0.0
    for _ in range(100):
        channel = random_binary_channel(rng, 2)
        w = rng.uniform(0.05, 0.95)
        dist = ProbabilityDistribution(("0", "1"), np.array([w, 1 - w]))
        chi1 = holevo_chi(channel, dist)
        for n in (2, 3):
            chi_n = holevo_chi(product_extension(channel, n), dist.power(n))
            worst = max(worst, abs(chi_n / n - chi1))
    checks = [
        (worst <= 1e-9, f"additivity gap {worst} exceeds 1e-9 over 100 seeded channels"),
    ]
    announce(capsys, 2, "chi additivity", checks)


# ---------------------------------------------------------------------------
# 3. operator lemma sweeps
# ---------------------------------------------------------------------------


def test_criterion_3_lemma_sweeps(capsys):
    summary = sweep_lemma_checks(trials=1000, seed=20240801, dims=(2, 3, 4, 5, 6, 7, 8))
    checks = []
    for name, entry in sorted(summary.items()):
        checks.append((entry["all_hold"], f"{name}: {entry['failures']} failures"))
        checks.append(
            (entry["min_slack"] >= -1e-10, f"{name}: min slack {entry['min_slack']} < -1e-10")
        )
        checks.append((entry["trials"] == 1000, f"{name}: ran {entry['trials']} trials"))
    announce(capsys, 3, "operator lemma sweeps", checks)


# ---------------------------------------------------------------------------
# 4. projector bound grid
# ---------------------------------------------------------------------------


def test_criterion_4_projector_bounds(capsys):
    checks = []
    ns = range(2, 11)
    alphas = (0.5, 1.0, 2.0)
    instances = 20

    # state projectors: capture reference holds exactly under the fixed
    # preset, counting/equipartition hold in their provable exponent forms
    rng = np.random.default_rng(101)
    bad = []
    for n in ns:
        for alpha in alphas:
            for i in range(instances):
                rho = random_density(rng, 2 if i % 2 == 0 else 3)
                report = verify_state_projector_bounds(rho, n, alpha, "fixed")
                wanted = (
                    "reference_capture",
                    "provable_capture_chebyshev",
                    "provable_capture_quarter",
                    "provable_counting",
                    "provable_equipartition",
                )
                if not all(report.flags[k] for k in wanted):
                    bad.append((n, alpha, i, report.flags))
    checks.append((not bad, f"state projector flags failed on {bad[:3]}"))

    # conditional projectors on typical words: capture/counting/equipartition
    # provable forms
    rng = np.random.default_rng(202)
    dist = ProbabilityDistribution.uniform(("0", "1"))
    bad = []
    for n in ns:
        for alpha in alphas:
            for i in range(instances):
                channel = random_binary_channel(rng, 2 if i % 2 == 0 else 3)
                word = sample_typical_word(rng, dist, n, 0.5)
                report = verify_conditional_projector_bounds(channel, word, dist, alpha, "fixed")
                wanted = (
                    "provable_capture_chebyshev",
                    "provable_capture_quarter",
                    "provable_counting",
                    "provable_equipartition",
                )
                if not all(report.flags[k] for k in wanted):
                    bad.append((n, alpha, i, report.flags))
    checks.append((not bad, f"conditional projector flags failed on {bad[:3]}"))

    # cross capture on exact-type words: declaring the word's own empirical
    # type makes the variance bound provable, and it must then hold
    rng = np.random.default_rng(303)
    bad = []
    cross_count = 0
    for n in ns:
        for alpha in alphas:
            for i in range(instances):
                channel = random_binary_channel(rng, 2 if i % 2 == 0 else 3)
                word = tuple(rng.choice(("0", "1"), size=n))
                counts = [word.count(a) for a in ("0", "1")]
                emp = ProbabilityDistribution(("0", "1"), np.array(counts, dtype=float) / n)
                report = verify_conditional_projector_bounds(channel, word, emp, alpha, "fixed")
                if "provable_cross_capture" not in report.flags:
                    bad.append((n, alpha, i, "bound not applicable on exact type"))
                elif not report.flags["provable_cross_capture"]:
                    bad.append((n, alpha, i, report.measured["cross_capture"]))
                else:
                    cross_count += 1
    checks.append((not bad, f"cross-capture failed on {bad[:3]}"))
    checks.append((cross_count == 9 * 3 * 20, f"cross-capture checked {cross_count} instances"))
    announce(capsys, 4, "projector bound grid", checks)


# ---------------------------------------------------------------------------
# 5. coding pipeline error schedule
# ---------------------------------------------------------------------------


def test_criterion_5_coding_pipeline(capsys):
    bc = product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.1))
    dist = ProbabilityDistribution.uniform(("0", "1"))
    schedule = {4: 3, 6: 4, 8: 9, 10: 11}  # block length -> codebook seed
    errs1, errs2 = [], []
    checks = []
    for n, seed in schedule.items():
        cb = sample_codebook(dist, n, 2, 2, delta_code=0.5, seed=seed)
        det = build_detection_operators(cb, bc, alpha=0.3)
        dec = build_square_root_decoder(det)
        report = average_errors(cb, bc, dec)
        errs1.append(report.overall[1])
        errs2.append(report.overall[2])
        checks.append((report.decomposition_ok, f"n={n}: miss/collision decomposition violated"))
        margins = [m for group in dec.subpovm_margins.values() for m in group.values()]
        checks.append(
            (max(margins) <= 1e-9, f"n={n}: sub-POVM margin {max(margins)} exceeds 1e-9")
        )
    checks.append(
        (max(errs1) <= 1e-9, f"noiseless receiver errors {errs1} should all be 0"),
    )
    monotone = all(a >= b - 1e-12 for a, b in zip(errs2, errs2[1:]))
    checks.append((monotone, f"receiver-2 errors {errs2} are not monotone nonincreasing"))
    checks.append((errs2[-1] < 0.1, f"final receiver-2 error {errs2[-1]} is not below 0.1"))
    announce(capsys, 5, "coding pipeline schedule", checks)


# ---------------------------------------------------------------------------
# 6. expurgation on synthetic error tables
# ---------------------------------------------------------------------------


def synthetic_report(first1, first2, m1_size, m2_size):
    return ErrorReport(
        n=1,
        m1_size=m1_size,
        m2_size=m2_size,
        first_kind={1: dict(first1), 2: dict(first2)},
        collisions={1: {}, 2: {}},
        decomposition_bounds={1: {}, 2: {}},
        decomposition_ok=True,
    )


def test_criterion_6_expurgation(capsys):
    rng = np.random.default_rng(606)
    checks = []
    bad = []
    for t in range(100):
        m1s, m2s = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        first1 = {(i, j): float(rng.uniform(0, 0.5)) for i in range(m1s) for j in range(m2s)}
        first2 = {(i, j): float(rng.uniform(0, 0.5)) for i in range(m1s) for j in range(m2s)}
        report = synthetic_report(first1, first2, m1s, m2s)
        delta = max(report.overall[1], report.overall[2])  # global average <= delta
        result = expurgate(report, delta)

        # pigeonhole oracle: the ceil(M/2) smallest selection averages cannot
        # exceed 2 delta when the overall mean is at most delta
        keep2 = sorted(range(m2s), key=lambda m2: (report.avg_by_m2[m2], m2))
        keep2 = sorted(keep2[: math.ceil(m2s / 2)])
        keep1 = sorted(range(m1s), key=lambda m1: (report.avg_by_m1[m1], m1))
        keep1 = sorted(keep1[: math.ceil(m1s / 2)])
        if tuple(keep2) != result.m2_kept or tuple(keep1) != result.m1_kept:
            bad.append((t, "kept sets differ from pigeonhole oracle"))
            continue
        sel_max = max(
            max(report.avg_by_m2[m2] for m2 in keep2),
            max(report.avg_by_m1[m1] for m1 in keep1),
        )
        if sel_max > 2 * delta + 1e-12 or not result.within_two_delta:
            bad.append((t, f"selection bound: {sel_max} vs 2*delta {2 * delta}"))
        final_max = max(
            max(
                np.mean([first1[(m1, m2)] for m1 in keep1])
                for m2 in keep2
            ),
            max(
                np.mean([first2[(m1, m2)] for m2 in keep2])
                for m1 in keep1
            ),
        )
        if final_max > 4 * delta + 1e-12 or not result.within_four_delta:
            bad.append((t, f"final bound: {final_max} vs 4*delta {4 * delta}"))
        lib_final = max(
            max(result.final_error_by_m2.values()), max(result.final_error_by_m1.values())
        )
        if abs(lib_final - final_max) > 1e-12:
            bad.append((t, f"final errors {lib_final} differ from oracle {final_max}"))
    checks.append((not bad, f"expurgation failures: {bad[:3]}"))
    announce(capsys, 6, "expurgation bounds", checks)


# ---------------------------------------------------------------------------
# 7. rate regions
# ---------------------------------------------------------------------------


def clip_polygon_oracle(points, halfplanes):
    # Sutherland-Hodgman clipping of a convex polygon by a*R1 + b*R2 <= c planes
    poly = list(points)
    for a, b, c in halfplanes:
        if not poly:
            break
        out = []
        for i, p in enumerate(poly):
            q = poly[(i + 1) % len(poly)]
            fp = c - (a * p[0] + b * p[1])
            fq = c - (a * q[0] + b * q[1])
            if fp >= -1e-12:
                out.append(p)
            if (fp > 1e-12 and fq < -1e-12) or (fp < -1e-12 and fq > 1e-12):
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = out
    dedup = []
    for p in poly:
        if not any(abs(p[0] - q[0]) <= 1e-10 and abs(p[1] - q[1]) <= 1e-10 for q in dedup):
            dedup.append(p)
    return dedup


def test_criterion_7_rate_regions(capsys):
    checks = []
    mac = mac_region(adder_mac_channel(), DistributionGrid(("0", "1"), 64), "conditional")
    checks.append(
        (
            abs(mac.max_sum_rate() - 1.5) <= 0.02,
            f"adder sum rate {mac.max_sum_rate()} not within 0.02 of 1.5",
        )
    )

    bc = product_broadcast_channel(orthogonal_pure_channel(), depolarized_channel(0.2))
    bregion = broadcast_region(bc, DistributionGrid(("0", "1"), 64))
    corner = (1.0, 1 - h2(0.1))
    hit = any(
        abs(v[0] - corner[0]) <= 1e-6 and abs(v[1] - corner[1]) <= 1e-6 for v in bregion.vertices
    )
    checks.append((hit, f"corner {corner} missing from broadcast vertices {bregion.vertices}"))

    inter = intersect_regions(mac, bregion)
    oracle = clip_polygon_oracle(mac.vertices, bregion.halfplanes)
    matched = len(oracle) == len(inter.vertices) and all(
        any(abs(v[0] - o[0]) <= 1e-8 and abs(v[1] - o[1]) <= 1e-8 for o in oracle)
        for v in inter.vertices
    )
    checks.append(
        (matched, f"intersection vertices {inter.vertices} differ from clip oracle {oracle}")
    )
    announce(capsys, 7, "rate regions", checks)


# ---------------------------------------------------------------------------
# 8. modular-sum scheme
# ---------------------------------------------------------------------------


def test_criterion_8_modular_sum(capsys):
    checks = []
    bad = 0
    for size in range(1, 17):
        for m1 in range(size):
            for m2 in range(size):
                common = modular_sum_encode(m1, m2, size)
                if modular_sum_decode(common, m2, size) != m1:
                    bad += 1
                if modular_sum_decode(common, m1, size) != m2:
                    bad += 1
    checks.append((bad == 0, f"{bad} arithmetic roundtrip failures for sizes up to 16"))

    bc = product_broadcast_channel(orthogonal_pure_channel(), orthogonal_pure_channel())
    report = end_to_end_broadcast_sim(
        bc, {"n": 4, "M1": 4, "M2": 4, "alpha": 0.5, "seed": 0, "scheme": "modular-sum"}
    )
    checks.append((report["status"] == "ok", f"simulation status {report['status']}"))
    checks.append(
        (report["decode"]["all_correct"], "noiseless modular-sum decode not exact")
    )
    worst = max(
        report["common_errors"]["avg_receiver1"], report["common_errors"]["avg_receiver2"]
    )
    checks.append((worst <= 1e-9, f"noiseless common-message error {worst} is nonzero"))
    announce(capsys, 8, "modular-sum scheme", checks)


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(capsys, tmp_path):
    mac_path = tmp_path / "mac.json"
    bc_path = tmp_path / "bc.json"
    ortho_path = tmp_path / "ortho.json"
    assert cli_main(["generate", "adder-mac", "--out", str(mac_path)]) == 0
    assert cli_main(["generate", "product-broadcast", "--p", "0.2", "--out", str(bc_path)]) == 0
    assert cli_main(["generate", "orthogonal", "--out", str(ortho_path)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "M1": 2, "M2": 2, "alpha": 0.3, "seed": 3}))
    invocations = [
        ["generate", "product-broadcast", "--p", "0.2"],
        ["chi", "--channel", str(ortho_path), "--format", "json"],
        ["region", "bidirectional", "--mac-channel", str(mac_path), "--bc-channel", str(bc_path), "--grid-k", "8"],
        ["verify", "lemmas", "--trials", "25", "--seed", "5"],
        ["simulate", "--config", str(cfg), "--bc-channel", str(bc_path)],
    ]
    checks = []
    for idx, argv in enumerate(invocations):
        a = tmp_path / f"run{idx}_a.out"
        b = tmp_path / f"run{idx}_b.out"
        rc_a = cli_main(argv + ["--out", str(a)])
        rc_b = cli_main(argv + ["--out", str(b)])
        same = rc_a == 0 and rc_b == 0 and a.read_bytes() == b.read_bytes()
        checks.append((same, f"{' '.join(argv)} is not byte-identical across reruns"))
    announce(capsys, 9, "cli determinism", checks)
