"""The one memory budget: each path's price is an upper bound on its peak,
and not a loose one, and every path refuses above the budget before it
allocates."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cqrelay import coding, operators, regions, typicality
from cqrelay.channels import (
    adder_mac_channel,
    depolarized_channel,
    load_channel,
    orthogonal_pure_channel,
    product_broadcast_channel,
)
from cqrelay.cli import main
from cqrelay.coding import average_errors, build_square_root_decoder, sample_codebook, second_kind_collision_check
from cqrelay.errors import ResourceLimitError
from cqrelay.operators import MEMORY_BUDGET, ProbabilityDistribution
from cqrelay.regions import DistributionGrid, mac_region

from test_srm_oracle import factor_path

OVERLAP = "bench/overlap-broadcast.json"


def product_broadcast():
    return product_broadcast_channel(orthogonal_pure_channel(2), depolarized_channel(0.1, 2))


def priced_peak(monkeypatch, module, run):
    """(tracemalloc peak of run(), the prices module's _require_bytes was asked)."""
    prices = []
    check = module._require_bytes

    def spy(nbytes, what):
        prices.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(module, "_require_bytes", spy)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    return peak, prices


def assert_tight_upper_bounds(runs):
    """Each (peak, price) is an upper bound, within 3x at the last, largest run."""
    for peak, price in runs:
        assert peak <= price
    peak, price = runs[-1]
    assert price <= 3 * peak


def error_pass(monkeypatch, bc, n, m, seed, factor):
    """(peak, largest group price) of the error pass over an m x m codebook;
    the averaged projectors are built beforehand, outside the trace."""
    dist = ProbabilityDistribution.uniform(bc.alphabet)
    cb = sample_codebook(dist, n, m, m, seed=seed)
    projectors = coding._averaged_projectors(bc, dist, n, 0.3, "fixed")
    if factor:
        with factor_path():
            decoder = build_square_root_decoder(cb, bc, 0.3, projectors=projectors)
    else:
        decoder = build_square_root_decoder(cb, bc, 0.3, projectors=projectors)
    peak, prices = priced_peak(monkeypatch, coding, lambda: average_errors(decoder))
    assert len(prices) == 2 * m  # one price per group, built as it is read
    return peak, max(prices)


def test_diagonal_group_price_bounds_its_peak(monkeypatch):
    # product-broadcast: every group takes the diagonal path
    runs = [error_pass(monkeypatch, product_broadcast(), n, 4, 11, False) for n in (12, 14, 16)]
    assert_tight_upper_bounds(runs)


def test_factor_group_price_bounds_its_peak(monkeypatch):
    # the overlap channel's receiver 2 has conditional ranks in the hundreds
    runs = [error_pass(monkeypatch, load_channel(OVERLAP), n, 2, 11, True) for n in (9, 10, 11)]
    assert_tight_upper_bounds(runs)


def test_exact_second_kind_price_bounds_its_peak(monkeypatch):
    bc = product_broadcast()
    dist = ProbabilityDistribution.uniform(bc.alphabet)
    runs = []
    for n in (8, 9, 10):
        peak, prices = priced_peak(
            monkeypatch, coding, lambda: second_kind_collision_check(dist, bc, n, 0.3)
        )
        runs.append((peak, prices[0]))
    assert_tight_upper_bounds(runs)


def test_region_stack_price_bounds_its_peak(monkeypatch):
    # grids 64, 128 and 512 are walked in 3, 9 and 171 chunks of whole
    # rows; the largest price, of the slices, of a chunk with the running
    # candidates, or of the hull, bounds the peak
    mac = adder_mac_channel()
    runs = []
    for k in (64, 128, 512):
        grid = DistributionGrid(tuple(mac.alphabets[0]), k)
        peak, prices = priced_peak(monkeypatch, regions, lambda: mac_region(mac, grid))
        rows = regions._CHUNK_POINTS // (k + 1)
        assert len(prices) == 1 + math.ceil((k + 1) / rows) + 1  # the slices, each chunk, the hull
        runs.append((peak, max(prices)))
    assert_tight_upper_bounds(runs)


def test_a_distribution_power_is_priced_before_its_words(monkeypatch):
    # within the budget the price bounds the peak, at the block length
    # whose set of words grew its table furthest (3^9 words, measured); the
    # 4096 binary words of length 12 are priced above a 256 KiB budget and
    # refused before any is formed
    for letters, ns in ((3, (7, 8, 9)), (2, (8, 10, 12))):
        dist = ProbabilityDistribution.uniform(tuple(str(i) for i in range(letters)))
        runs = []
        for n in ns:
            peak, prices = priced_peak(monkeypatch, operators, lambda: dist.power(n))
            runs.append((peak, prices[0]))
        assert_tight_upper_bounds(runs)
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 2**18)
    with pytest.raises(ResourceLimitError, match=r"^the 12-letter power needs about "):
        dist.power(12)


def test_count_table_price_bounds_its_build(monkeypatch):
    runs = []
    for n in (20, 40, 60):
        peak, prices = priced_peak(monkeypatch, typicality, lambda: typicality._count_table(n, 3))
        runs.append((peak, prices[0]))
    assert_tight_upper_bounds(runs)


def test_count_law_price_bounds_its_peak(monkeypatch):
    # d = 3: one instance, then enough instances to be taken in chunks
    rng = np.random.default_rng(12)
    runs = []
    for s_count, n in ((1, 120), (200, 60)):
        q = rng.dirichlet(np.ones(3), size=(s_count, n))
        w = np.sort(rng.dirichlet(np.ones(3), size=s_count))[:, ::-1]
        allowed = typicality._eigen_allowed(w, n, 0.3)
        peak, prices = priced_peak(monkeypatch, typicality, lambda: typicality._count_law_masses(q, allowed))
        runs.append((peak, max(prices)))
    assert len(prices) > 2  # the whole stack, then each chunk
    assert_tight_upper_bounds(runs)


def test_the_largest_count_table_the_price_admits_builds(monkeypatch):
    # at a 16 MiB budget the largest d = 3 table whose price fits builds
    # within the budget, and the next block length is refused before it
    # allocates
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 16 * 2**20)
    n = 1
    while typicality._count_table_bytes(n + 1, 3) <= operators.MEMORY_BUDGET:
        n += 1
    tracemalloc.start()
    try:
        assert len(typicality._count_table(n, 3).counts) == math.comb(n + 2, 2)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ResourceLimitError):
            typicality._count_table(n + 1, 3)
        refused = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built <= operators.MEMORY_BUDGET
    assert refused < 2**20


def test_prices_never_form_the_dimension():
    assert operators._power(2, 10) == 1024.0
    assert operators._power(1, 10**12) == 1.0
    assert operators._power(2, 10**12) == math.inf
    with pytest.raises(ResourceLimitError, match=r"^x needs about more bytes than a float counts, above the 2 GiB memory budget$"):
        operators._require_bytes(math.inf, "x")
    with pytest.raises(ResourceLimitError, match=r"^x needs about more bytes than a float counts"):
        operators._require_bytes(10**400, "x")
    operators._require_bytes(MEMORY_BUDGET, "x")  # the budget itself fits


def test_a_diagonal_group_above_the_budget_is_refused_before_it_is_built(monkeypatch):
    bc = product_broadcast()
    dist = ProbabilityDistribution.uniform(bc.alphabet)
    cb = sample_codebook(dist, 12, 2, 2, seed=11)
    decoder = build_square_root_decoder(cb, bc, 0.3)
    price = coding._diagonal_group_bytes(2**12, 2)
    monkeypatch.setattr(operators, "MEMORY_BUDGET", price - 1)
    with pytest.raises(ResourceLimitError, match=r"^decoding group of 2 words needs about [0-9.e-]+ GiB"):
        decoder.group(1, 0)
    monkeypatch.setattr(operators, "MEMORY_BUDGET", price)
    assert len(decoder.group(1, 0)) == 2


def test_factor_path_simulate_above_the_budget_exits_three(tmp_path, capsys):
    # at n = 15 the overlap channel's first receiver-2 group holds detection
    # factors of 2,860 and 1,056 columns on 2^15 dimensions: priced at 2.7
    # GiB from the words' ranks, read from their count windows, before any
    # of its factors is built (receiver 1's groups, of rank-1 words, come
    # first and fit)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 15, "M1": 2, "M2": 2, "alpha": 0.3, "seed": 11}))
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(cfg), "--bc-channel", OVERLAP]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["error: decoding group of 2 words needs about 2.71 GiB, above the 2 GiB memory budget"]


def test_one_budget_constant_is_read_at_every_check(monkeypatch):
    # a budget of 1 MiB refuses what the default admits, on every path
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 2**20)
    bc = product_broadcast()
    dist = ProbabilityDistribution.uniform(bc.alphabet)
    checks = [
        lambda: typicality.typical_projector(np.eye(2) / 2, 19, 0.5),
        lambda: second_kind_collision_check(dist, bc, 12, 0.3),
        lambda: mac_region(adder_mac_channel(), DistributionGrid(("0", "1"), 64)),
        lambda: typicality.conditional_typical_projector(bc.marginal(2), ("0", "1") * 9, 0.3).matrix(),
        lambda: typicality.typical_projector(np.eye(2) / 2, 16, 10.0).index_words(),
        lambda: operators.product_columns([np.eye(2)] * 12, np.zeros((300, 12), dtype=int)),
    ]
    for check in checks:
        with pytest.raises(ResourceLimitError, match=r"above the 0\.000977 GiB memory budget$"):
            check()


def test_reading_a_projector_beyond_the_budget_is_refused():
    # at n = 20 the mask fits (4 MiB), but its 2^20 x 30976 included vectors
    # would take 484 GiB: refused before the product steps that build them
    proj = typicality.conditional_typical_projector(product_broadcast().marginal(2), ("0", "1") * 10, 0.3)
    with pytest.raises(ResourceLimitError, match=r"^1048576 x 30976 product columns needs about 484 GiB, above"):
        proj.included_vectors()
