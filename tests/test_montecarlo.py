import math
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import exact
import numpy as np
import pytest

import loopsource
from loopsource import (
    ConstantPump,
    DetectorKind,
    DetectorModel,
    LossModel,
    PerBinPump,
    ProtocolConfig,
    SourceModel,
    fidelity_report,
    herald_single_shot,
    herald_train,
    m_source_distribution,
    outcome_distribution,
    run_simulation,
    simulate_parallel_sources,
    simulate_trial,
    transmission,
)
from loopsource import montecarlo
from loopsource.cli import main
from loopsource.models import DetectorOutcome, _thermal_rate, detect_prob, herald_outcome
from loopsource.montecarlo import (
    _single_photon,
    _thermal_inverse_cdf,
    draws_per_trial,
)

RESOLVED = DetectorKind.NUMBER_RESOLVED
BUCKET = DetectorKind.BUCKET


def _mixed_config():
    return ProtocolConfig(
        4, ConstantPump(0.9), DetectorModel(RESOLVED, 0.85), LossModel(0.9, 0.97)
    )


def _per_bin_config():
    return ProtocolConfig(
        3, PerBinPump((0.2, 0.8, 1.4)), DetectorModel(BUCKET, 0.8), LossModel(0.85, 0.9)
    )


def _train_config():
    # the benchmark's mc_train point: S ~ 0.31 per bin, blocks of two bins
    return ProtocolConfig(
        50, ConstantPump(0.5), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    )


def _bank_configs():
    # three different sources: pump schedule, detector and loss all differ
    return [
        _mixed_config(),
        ProtocolConfig(
            4, PerBinPump((0.3, 0.0, 1.1, 0.6)), DetectorModel(BUCKET, 0.7), LossModel(0.8, 0.95)
        ),
        ProtocolConfig(4, ConstantPump(0.4), DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0)),
    ]


def _words(seed, source_index, kind, page, block, word, count):
    """``count`` uniforms from word ``word`` of one counter range, taken
    from numpy's own generator started at that range."""
    key = np.array([seed, source_index], dtype=np.uint64)
    counter = np.array([word // 4, block, page, kind], dtype=np.uint64)
    generator = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return generator.random(word % 4 + count)[word % 4 :]


def _oracle_blocks(configs):
    """The documented block plan, bin by bin: a block ends at the first
    bin by which the bank's expected unheralded share has halved since
    the block began, and holds at most budget / (2 page) bins."""
    t = configs[0].time_bins
    share = np.ones(t)
    for config in configs:
        singles = [herald_single_shot(SourceModel(n), config.detector) for n in config.bin_means()]
        share = share * np.cumprod(1.0 - np.array(singles))
    max_width = max(1, montecarlo._BATCH_BUDGET_DRAWS // (2 * montecarlo._PAGE_TRIALS))
    blocks, start, level = [], 0, 1.0
    while start < t:
        stop = start + 1
        while stop < t and stop - start < max_width and share[stop - 1] > level / 2:
            stop += 1
        blocks.append((start, stop))
        start, level = stop, share[stop - 1]
    return blocks


def _oracle_run(configs, seed, trials):
    """Every trial's (loop index, single photon, winning source, tie), one
    trial at a time from the documented addresses: in each block, the rank
    of a trial that no source has heralded yet is the number of earlier
    trials of its page still unheralded there, and it reads words
    [rank w, (rank + 1) w) of each source's thermal and herald ranges.
    ``tie`` says whether a higher source heralded at the winner's bin."""
    t, page_trials = configs[0].time_bins, montecarlo._PAGE_TRIALS
    blocks = _oracle_blocks(configs)
    outcomes = []
    for i in range(trials):
        page, row = divmod(i, page_trials)
        if row == 0:
            live_before = [0] * len(blocks)
        best, tie = None, False
        for block, (start, stop) in enumerate(blocks):
            width, rank = stop - start, live_before[block]
            live_before[block] += 1
            for s, config in enumerate(configs):
                thermal = _words(seed, s, 0, page, block, rank * width, width)
                herald = _words(seed, s, 1, page, block, rank * width, width)
                rates = _thermal_rate(config.bin_means()[start:stop])
                photons = _thermal_inverse_cdf(thermal, rates)
                outcome = herald_outcome(config.detector.kind)
                heralds = herald < detect_prob(config.detector, outcome, photons)
                if heralds.any():
                    k = int(np.argmax(heralds))
                    if best is None or start + k < best[0]:
                        best, tie = (start + k, s, photons[k]), False
                    elif start + k == best[0]:
                        tie = True
            if best is not None:
                break
        if best is None:
            outcomes.append((t, False, None, False))
            continue
        loop, source, held = best
        tau = transmission(configs[source].loss, loop)
        u = _words(seed, 0, 2, page, 0, row, 1)
        outcomes.append((loop, bool(_single_photon(np.array([held]), tau, u)[0]), source, tie))
    return outcomes


def test_draws_per_trial_counts_the_uniforms_a_trial_reads(monkeypatch):
    for t in range(1, 40):
        assert draws_per_trial(t) == 2 * t + 1
    # a trial reads at most one thermal and one herald draw per bin from
    # each source, and the page one thinning draw per trial
    configs = _bank_configs()
    words = [0]
    read = montecarlo._Stream.read

    def counted(self, kind, page, block, out):
        words[0] += out.size
        read(self, kind, page, block, out)

    monkeypatch.setattr(montecarlo._Stream, "read", counted)
    simulate_parallel_sources(configs, 5000, 5)
    assert 5000 < words[0] <= 5000 * (len(configs) * (draws_per_trial(4) - 1) + 1)


def test_trial_outcomes_are_well_formed():
    config = _mixed_config()
    for i in range(300):
        outcome = simulate_trial([config], 12, i)
        if outcome.heralded:
            assert 0 <= outcome.herald_loop_index < config.time_bins
        else:
            assert outcome.herald_loop_index is None
            assert not outcome.single_photon
    with pytest.raises(ValueError, match="unheralded trial must hold no photon"):
        montecarlo.TrialOutcome(herald_loop_index=None, single_photon=True)


@pytest.mark.parametrize(
    "config",
    [
        _mixed_config(),
        _per_bin_config(),
        # lossless: every transmission is exactly 1
        ProtocolConfig(3, ConstantPump(0.9), DetectorModel(BUCKET, 0.8), LossModel(1.0, 1.0)),
        # heavy pump: a heralded bin holds ~30 photons on average
        ProtocolConfig(48, ConstantPump(30.0), DetectorModel(BUCKET, 0.9), LossModel(0.05, 0.9)),
        # blocks of two bins: some trials herald after the first block
        _train_config(),
        # pump just below the sampler's limit of 4e15 (warnings fail the
        # suite); the first loop keeps about one of the ~nbar held photons
        *(
            ProtocolConfig(2, ConstantPump(3.9e15), DetectorModel(kind, 0.9), LossModel(3e-16, 1.0))
            for kind in (RESOLVED, BUCKET)
        ),
    ],
)
def test_per_trial_replay_reproduces_the_batch_run(config):
    """Replaying trial i through its page must give the exact trial the
    batch run produced, so the two paths are interchangeable evidence."""
    trials, seed = 2000, 5
    t = config.time_bins
    counts = [0] * (t + 1)
    singles = 0
    for i in range(trials):
        outcome = simulate_trial([config], seed, i)
        index = outcome.herald_loop_index if outcome.heralded else t
        counts[index] += 1
        if outcome.single_photon:
            singles += 1
    summary = run_simulation(config, trials, seed)
    assert tuple(counts) == summary.loop_counts
    assert singles / trials == summary.unconditional_fidelity.value
    if config == _train_config():
        assert sum(counts[2:t]) > 0


def _check_against_oracle(configs, seed, trials):
    outcomes = _oracle_run(configs, seed, trials)
    t = configs[0].time_bins
    counts = np.bincount([outcome[0] for outcome in outcomes], minlength=t + 1)
    summary = simulate_parallel_sources(configs, trials, seed)
    assert summary.loop_counts == tuple(counts.tolist())
    assert summary.unconditional_fidelity.value == sum(o[1] for o in outcomes) / trials
    for i in (0, trials // 2, trials - 1):
        loop, single = outcomes[i][:2]
        replay = simulate_trial(configs, seed, i)
        assert (replay.herald_loop_index, replay.single_photon) == (
            (None, False) if loop == t else (loop, single)
        )
    return outcomes


_LAYOUT_CONFIGS = {
    # two-bin blocks: S ~ 0.31 per bin
    "mc_train": _train_config(),
    # nearly every trial heralds in the newest bin
    "nbar30": ProtocolConfig(
        48, ConstantPump(30.0), DetectorModel(BUCKET, 0.9), LossModel(0.05, 0.9)
    ),
    # blocks of 16 bins
    "t200": ProtocolConfig(
        200, ConstantPump(0.05), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    ),
    # rare heralds: the share never halves, so a block ends at the width
    # cap or at the end of the train
    "rare": ProtocolConfig(
        50, ConstantPump(1e-3), DetectorModel(RESOLVED, 0.9), LossModel(0.9, 0.9)
    ),
    "t1": ProtocolConfig(1, ConstantPump(0.7), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)),
    "eta0": ProtocolConfig(
        6, ConstantPump(2.0), DetectorModel(BUCKET, 0.0), LossModel(0.9, 0.9)
    ),
    "lossless_resolved": ProtocolConfig(
        12, ConstantPump(1.2), DetectorModel(RESOLVED, 1.0), LossModel(1.0, 1.0)
    ),
    "per_bin_zeros": ProtocolConfig(
        8,
        PerBinPump((0.0, 3.0, 0.0, 0.0, 0.4, 0.0, 2.5, 0.0)),
        DetectorModel(BUCKET, 0.8),
        LossModel(0.85, 0.9),
    ),
    **{
        f"nbar3.9e15_{kind.value}": ProtocolConfig(
            2, ConstantPump(3.9e15), DetectorModel(kind, 0.9), LossModel(3e-16, 1.0)
        )
        for kind in (RESOLVED, BUCKET)
    },
}


@pytest.fixture
def small_pages(monkeypatch):
    """Pages of 64 trials, so that a few hundred trials span several."""
    monkeypatch.setattr(montecarlo, "_PAGE_TRIALS", 64)


@pytest.mark.parametrize("config", _LAYOUT_CONFIGS.values(), ids=_LAYOUT_CONFIGS.keys())
def test_batch_run_matches_per_trial_oracle(small_pages, config):
    """The page engine evaluates blocks for the live trials of a page at
    once; reading each trial's documented words on its own and applying
    the freshest-herald rule bin by bin must give the same trials."""
    _check_against_oracle([config], 3, 300)


@pytest.mark.parametrize("budget", [1 << 20, 2 * 64], ids=["halving", "capped"])
@pytest.mark.parametrize("bank", ["heterogeneous", "identical"])
def test_parallel_run_matches_per_trial_oracle(small_pages, monkeypatch, bank, budget):
    """The same for banks of three sources, including ties, which go to
    the lowest source index, and blocks cut to one bin by the budget."""
    monkeypatch.setattr(montecarlo, "_BATCH_BUDGET_DRAWS", budget)
    configs = _bank_configs() if bank == "heterogeneous" else [_per_bin_config()] * 3
    outcomes = _check_against_oracle(configs, 8, 400)
    assert {outcome[2] for outcome in outcomes} >= {0, 1, 2}
    if bank == "identical":
        assert any(outcome[3] for outcome in outcomes)
    widths = {stop - start for start, stop in _oracle_blocks(configs)}
    assert widths == ({1} if budget < 1 << 20 else {1, 2})


def test_block_plan_follows_the_halving_rule():
    banks = {name: montecarlo._Bank([c], 0) for name, c in _LAYOUT_CONFIGS.items()}
    banks["bank"] = montecarlo._Bank(_bank_configs(), 0)
    plans = {}
    for name, bank in banks.items():
        blocks = list(bank.blocks())
        assert blocks == _oracle_blocks(bank.configs), name
        assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == bank.time_bins
        plans[name] = [stop - start for start, stop in blocks]
    assert plans["mc_train"] == [2] * 25
    assert plans["nbar30"] == [1] * 48
    assert plans["t200"] == [16] * 12 + [8]
    assert plans["bank"] == [1, 2, 1]
    # the share never halves: a blind detector fills the train, and rare
    # heralds meet one source's cap of 32 bins at pages of 2**14 trials
    assert plans["eta0"] == [6]
    assert plans["rare"] == [32, 18]


@pytest.mark.parametrize("configs", [[_per_bin_config()], _bank_configs()], ids=["m1", "m3"])
def test_trial_outcome_does_not_depend_on_the_trials_after_it(small_pages, configs):
    """Running one more trial adds that trial's replayed outcome and
    changes no earlier one, across page boundaries too."""
    t, seed = configs[0].time_bins, 21
    previous = np.zeros(t + 1, dtype=np.int64)
    singles = 0
    for trials in range(1, 140):
        summary = simulate_parallel_sources(configs, trials, seed)
        outcome = simulate_trial(configs, seed, trials - 1)
        previous[outcome.herald_loop_index if outcome.heralded else t] += 1
        singles += outcome.single_photon
        assert summary.loop_counts == tuple(previous.tolist())
        assert summary.unconditional_fidelity.value == singles / trials


def test_stream_reads_native_philox_ranges():
    stream = montecarlo._Stream(7, 2)
    out = np.empty(70)
    for kind, page, block in [(0, 0, 0), (1, 3, 5), (2, 2**50, 0), (0, 1, 99_999)]:
        stream.read(kind, page, block, out)
        assert np.array_equal(out, _words(7, 2, kind, page, block, 0, 70))
    assert np.array_equal(_words(7, 2, 1, 3, 5, 9, 20), _words(7, 2, 1, 3, 5, 0, 29)[9:])


@pytest.mark.parametrize("configs", [[_train_config()], _bank_configs()], ids=["m1", "m3"])
def test_no_counter_is_read_twice(small_pages, monkeypatch, configs):
    """Each read fills one range from its first word without carrying into
    the next range, and no (key, kind, page, block) range is read twice:
    every source reads the same live trials of each block, and source 0
    one thinning word per trial of each page."""
    reads = []
    read = montecarlo._Stream.read

    def recorded(self, kind, page, block, out):
        read(self, kind, page, block, out)
        counter = tuple(self._gen.bit_generator.state["state"]["counter"].tolist())
        assert counter == ((out.size + 3) // 4, block, page, kind)
        reads.append((self._key, kind, page, block, out.size))

    monkeypatch.setattr(montecarlo._Stream, "read", recorded)
    trials, seed = 300, 44
    simulate_parallel_sources(configs, trials, seed)
    ranges = [r[:4] for r in reads]
    assert len(ranges) == len(set(ranges))
    sizes = {}
    for key, kind, page, block, size in reads:
        sizes.setdefault((kind == 2, page, block), set()).add(size)
    assert all(len(s) == 1 for s in sizes.values())
    pages = range(-(-trials // 64))
    thinning = {(page, size) for (k, page, _), (size,) in sizes.items() if k}
    assert thinning == {(page, min(64, trials - 64 * page)) for page in pages}
    keys = {key for key, kind, *_ in reads if kind != 2}
    assert keys == {(seed, s) for s in range(len(configs))}


def test_uniform_count_at_the_parallel_benchmark_point(monkeypatch):
    """At fig9's point (4 sources, t=10) only ~28% of a trial's column
    draws can change its result; generating uniforms only for trials no
    source has heralded yet must stay below half of sources x (2t + 1)."""
    config = ProtocolConfig(10, ConstantPump(0.1), DetectorModel(BUCKET, 0.95), LossModel(0.95, 0.95))
    words = [0]
    read = montecarlo._Stream.read

    def counted(self, kind, page, block, out):
        words[0] += out.size
        read(self, kind, page, block, out)

    monkeypatch.setattr(montecarlo._Stream, "read", counted)
    trials = 40_000
    simulate_parallel_sources([config] * 4, trials, 3)
    assert words[0] < 0.5 * 4 * draws_per_trial(10) * trials


@pytest.mark.parametrize("nbar, trials", [(0.5, 20_000), (1e-4, 2_000)])
def test_long_train_memory_is_bounded(monkeypatch, nbar, trials):
    """t = 1e5 bins, the top of the documented domain: peak allocation
    stays under 64 MiB, and a rare-herald run generates at most 1.5 x 2t
    uniforms per trial."""
    config = ProtocolConfig(
        100_000, ConstantPump(nbar), DetectorModel(BUCKET, 0.9), LossModel(0.99, 0.999)
    )
    words = [0]
    read = montecarlo._Stream.read

    def counted(self, kind, page, block, out):
        words[0] += out.size
        read(self, kind, page, block, out)

    monkeypatch.setattr(montecarlo._Stream, "read", counted)
    tracemalloc.start()
    try:
        summary = run_simulation(config, trials, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert words[0] <= 1.5 * 2 * config.time_bins * trials
    assert summary.herald_rate.value > 0.99


def test_same_seed_same_summary():
    config = _per_bin_config()
    first = run_simulation(config, 5000, 123)
    second = run_simulation(config, 5000, 123)
    assert first == second


def test_different_seeds_differ():
    config = _mixed_config()
    a = run_simulation(config, 5000, 1)
    b = run_simulation(config, 5000, 2)
    assert a.loop_counts != b.loop_counts


def test_single_source_engine_is_the_parallel_engine():
    config = _mixed_config()
    assert run_simulation(config, 3000, 9) == simulate_parallel_sources([config], 3000, 9)


def test_summary_bookkeeping():
    config = _mixed_config()
    summary = run_simulation(config, 4000, 21)
    assert summary.trials == 4000
    assert summary.seed == 21
    assert sum(summary.loop_counts) == 4000
    assert summary.loop_histogram.probabilities == pytest.approx(
        tuple(c / 4000 for c in summary.loop_counts)
    )
    assert 0.0 <= summary.herald_rate.value <= 1.0
    heralded = sum(summary.loop_counts[:-1])
    expected_se = np.sqrt(
        summary.herald_rate.value * (1 - summary.herald_rate.value) / 4000
    )
    assert summary.herald_rate.standard_error == pytest.approx(expected_se)
    cond = summary.conditional_fidelity
    assert cond is not None
    assert cond.standard_error == pytest.approx(
        np.sqrt(cond.value * (1 - cond.value) / heralded)
    )


def test_vacuum_source_never_heralds():
    config = ProtocolConfig(
        3, ConstantPump(0.0), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    )
    summary = run_simulation(config, 2000, 0)
    assert summary.herald_rate.value == 0.0
    assert summary.conditional_fidelity is None
    assert summary.loop_counts[-1] == 2000


def test_lossless_resolved_output_is_always_one_photon():
    config = ProtocolConfig(
        4, ConstantPump(1.2), DetectorModel(RESOLVED, 1.0), LossModel(1.0, 1.0)
    )
    summary = run_simulation(config, 20_000, 17)
    assert summary.conditional_fidelity.value == 1.0


def test_agrees_with_analytic_predictions():
    config = _mixed_config()
    trials = 100_000
    summary = run_simulation(config, trials, 3)
    dist = outcome_distribution(config)
    report = fidelity_report(config)

    def within(dev, p, denom):
        se = np.sqrt(p * (1 - p) / denom)
        return dev <= 4 * se

    assert within(
        abs(summary.herald_rate.value - dist.herald_probability),
        dist.herald_probability,
        trials,
    )
    assert within(
        abs(summary.unconditional_fidelity.value - report.unconditional),
        report.unconditional,
        trials,
    )
    heralded = sum(summary.loop_counts[:-1])
    assert within(
        abs(summary.conditional_fidelity.value - report.conditional),
        report.conditional,
        heralded,
    )
    for l, p in enumerate(dist.probabilities):
        assert within(abs(summary.loop_histogram.probabilities[l] - p), p, trials)


def test_long_train_conditional_matches_prediction():
    # a 50-bin train at realistic efficiencies, the regime where the
    # closed forms are hardest to get right end to end
    config = ProtocolConfig(
        50, ConstantPump(0.34), DetectorModel(BUCKET, 0.95), LossModel(0.95, 0.95)
    )
    trials = 200_000
    summary = run_simulation(config, trials, 31)
    report = fidelity_report(config)
    heralded = sum(summary.loop_counts[:-1])
    se = np.sqrt(report.conditional * (1 - report.conditional) / heralded)
    assert abs(summary.conditional_fidelity.value - report.conditional) <= 3 * se


def test_two_source_histogram_matches_closed_form():
    config = ProtocolConfig(
        4, ConstantPump(0.7), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.95)
    )
    trials = 200_000
    summary = simulate_parallel_sources([config, config], trials, 11)
    single = herald_single_shot(SourceModel(0.7), config.detector)
    reference = m_source_distribution(single, 4, 2)
    for l, p in enumerate(reference.probabilities):
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(summary.loop_histogram.probabilities[l] - p) <= 4 * se


def test_parallel_sources_must_share_shape():
    a = _mixed_config()
    b = ProtocolConfig(5, ConstantPump(0.9), a.detector, a.loss)
    with pytest.raises(ValueError):
        simulate_parallel_sources([a, b], 100, 0)


def test_trial_count_beyond_the_int64_histogram_is_rejected_before_a_page(monkeypatch):
    # a missing check would walk ~5.6e14 pages: fail at once if a bank is built
    def no_bank(*args):
        raise AssertionError("a bank was built")

    monkeypatch.setattr(montecarlo, "_Bank", no_bank)
    with pytest.raises(ValueError, match=f"trials must be at most {2**63 - 1}, got {2**63}"):
        simulate_parallel_sources([_mixed_config()] * 2, 2**63, 0)


def test_seed_validation():
    config = _mixed_config()
    with pytest.raises(ValueError):
        run_simulation(config, 100, -1)
    with pytest.raises(ValueError):
        run_simulation(config, 100, 2**64)
    with pytest.raises(ValueError):
        run_simulation(config, 0, 0)
    # bool is an int subclass, but no count and no seed
    with pytest.raises(ValueError):
        run_simulation(config, True, 0)
    with pytest.raises(ValueError):
        run_simulation(config, 100, True)
    with pytest.raises(ValueError):
        simulate_trial([config], True, 0)
    with pytest.raises(ValueError):
        simulate_trial([config], 0, True)
    with pytest.raises(ValueError):
        simulate_trial([config], 0, -1)
    with pytest.raises(ValueError):
        simulate_trial([config], 0, 2**64)
    with pytest.raises(ValueError):
        simulate_trial([], 0, 0)
    # the last addressable seed and trial still replay
    simulate_trial([config], 2**64 - 1, 2**64 - 1)


@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.3, 0.9, 1.0 - 1e-12, 1.0])
def test_single_photon_test_matches_exact_oracle(tau):
    # Generator.random yields multiples of 2**-53, so a CDF boundary below
    # that step lies below every nonzero uniform and is probed by it.
    smallest = 2.0**-53
    held, uniforms, expected = [], [], []
    for n in range(1, 61):
        # exact P(0) and P(0) + P(1) of Binomial(n, tau)
        lo = exact.binomial_pmf(n, tau, 0)
        hi = lo + exact.binomial_pmf(n, tau, 1)
        probes = [0.0, smallest, 0.5]
        for boundary in (lo, hi):
            for side in (Fraction(-1, 10**12), Fraction(1, 10**12)):
                probes.append(float(boundary * (1 + side)))
        for u in probes:
            if u == 0.0 or smallest <= u < 1.0:
                held.append(n)
                uniforms.append(u)
                expected.append(lo < Fraction(u) <= hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decided = _single_photon(np.array(held), tau, np.array(uniforms))
    assert decided.tolist() == expected
    if tau == 0.0:
        assert not decided.any()
    if tau == 1.0:
        assert decided.tolist() == [n == 1 and u > 0.0 for n, u in zip(held, uniforms)]


def test_thinning_reads_the_detector_law():
    # The thinning's P0 and P1 are P(none) and P(one) of Binomial(n, tau),
    # the ZERO and ONE of a resolved detector of efficiency tau, so its CDF
    # boundary sits at detect_prob's P0 to the bit.
    rng = np.random.default_rng(22)
    taus = np.concatenate([rng.random(2000), [0.0, 1.0]])
    for n in (1, 2, 5, 20, 60, 700):
        resolved = [DetectorModel(RESOLVED, tau) for tau in taus.tolist()]
        p0 = np.array([detect_prob(det, DetectorOutcome.ZERO, n) for det in resolved])
        p1 = np.array([detect_prob(det, DetectorOutcome.ONE, n) for det in resolved])
        held = np.full(taus.size, float(n))
        assert not _single_photon(held, taus, p0).any(), n
        above = _single_photon(held, taus, np.nextafter(p0, 1.0))
        assert above[p1 > 0.0].all(), n


def test_thermal_quantile_is_exact():
    # The exact quantile is the floor of the exact quotient; above 2**53 it
    # is compared as the nearest double, the closest a sampled double can be.
    uniforms = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    for nbar in (0.0, 5e-324, 1e-4, 0.5, 1e6, 1e12, 1e14, 4e15):
        photons = _thermal_inverse_cdf(uniforms, _thermal_rate(nbar))
        for u, sampled in zip(uniforms.tolist(), photons.tolist()):
            quotient = exact.thermal_quotient(nbar, u)
            expected = float(math.floor(quotient))
            nearest = quotient.to_integral_value()
            near_integer = abs(quotient - nearest) <= Decimal("1e-15") * quotient
            assert abs(sampled - expected) <= (1 if near_integer else 0), (nbar, u)


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_sampler_agrees_with_closed_form_at_its_pump_limit(kind):
    # at the sampling cap, where the log of the rounded ratio nbar / (1 + nbar)
    # is 11% off the rate
    config = ProtocolConfig(
        3, ConstantPump(4e15), DetectorModel(kind, 1e-15), LossModel(1.0, 1.0 - 1e-14)
    )
    summary = run_simulation(config, 50_000, 3)
    expected = herald_train(SourceModel(4e15), config.detector, 3)
    assert abs(summary.herald_rate.value - expected) <= 4 * summary.herald_rate.standard_error


def test_sampler_rejects_pump_above_its_limit(capsys):
    config = ProtocolConfig(
        2, ConstantPump(5e15), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    )
    with pytest.raises(ValueError, match="cannot be sampled"):
        run_simulation(config, 10, 0)
    with pytest.raises(ValueError, match="cannot be sampled"):
        simulate_trial([config], 0, 0)
    assert main(["simulate", "--nbar", "5e15", "--t", "2", "--trials", "10"]) == 2
    assert "cannot be sampled" in capsys.readouterr().err


# scipy.stats alone used to cost over a second of every CLI start, and
# numpy.polynomial adds ~4 ms to it
@pytest.mark.parametrize("module", ["scipy", "numpy.polynomial"])
def test_cli_import_leaves_module_unloaded(module):
    src = Path(loopsource.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, loopsource.cli; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
