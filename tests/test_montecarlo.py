import ast
import collections
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
    parallel_unconditional_fidelity,
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
    # the benchmark's mc_train point: S ~ 0.31 per bin
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


def _words(seed, source_index, kind, page, rnd, word, count):
    """``count`` uniforms from word ``word`` of one counter range, taken
    from numpy's own generator started at that range."""
    key = np.array([seed, source_index], dtype=np.uint64)
    counter = np.array([word // 4, rnd, page, kind], dtype=np.uint64)
    generator = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return generator.random(word % 4 + count)[word % 4 :]


def _can_herald(config):
    return config.detector.efficiency > 0.0 and any(config.bin_means() > 0.0)


def _oracle_next_bin(config, start, u):
    """The documented gap rule: the first bin ``b >= start`` at which the
    chance that bins ``start..b`` are all vacuum falls below ``1 - u``,
    by the formula for a constant pump and a bin-by-bin scan of the
    prefix of ``log1p(nbar)`` for a per-bin one (``t`` when there is none).
    It takes numpy's log1p, as the engine does: libm's differs from it in
    the last bit on some inputs."""
    t, log_u = config.time_bins, np.log1p(-u)
    if isinstance(config.pump, ConstantPump):
        with np.errstate(over="ignore"):
            gap = np.floor(log_u / -np.log1p(config.pump.mean_photon_number))
        return int(min(t, start + gap))
    prefix = np.concatenate([[0.0], np.cumsum(np.log1p(config.bin_means()))])
    b = start
    while b < t and not prefix[b + 1] > prefix[start] - log_u:
        b += 1
    return b


def _oracle_run(configs, seed, trials):
    """Every trial's (loop index, single photon, winning source), one trial
    at a time from the documented words.  In round ``r`` of source ``s``
    a trial's rank is the number of earlier trials of its page that read a
    gap word there, and its landing rank the number that read thermal and
    herald words there; a source searches only bins fresher than the
    freshest herald of the sources before it."""
    t, page_trials = configs[0].time_bins, montecarlo._PAGE_TRIALS
    outcomes = []
    for i in range(trials):
        page, row = divmod(i, page_trials)
        if row == 0:
            gaps, landings = collections.Counter(), collections.Counter()
        best = None
        for s, config in enumerate(configs):
            if not _can_herald(config):
                continue
            bound = t if best is None else best[0]
            start, rnd = 0, 0
            while start < bound:
                u = _words(seed, s, 0, page, rnd, gaps[s, rnd], 1)[0]
                gaps[s, rnd] += 1
                b = _oracle_next_bin(config, start, u)
                if b >= bound:
                    break
                k = landings[s, rnd]
                landings[s, rnd] += 1
                thermal = _words(seed, s, 1, page, rnd, k, 1)[0]
                herald = _words(seed, s, 2, page, rnd, k, 1)[0]
                n = 1.0 + np.floor(np.log1p(-thermal) / -_thermal_rate(config.bin_means()[b]))
                if herald < detect_prob(config.detector, herald_outcome(config.detector.kind), n):
                    best = (b, s, n)
                    break
                start, rnd = b + 1, rnd + 1
        if best is None:
            outcomes.append((t, False, None))
            continue
        loop, source, held = best
        tau = transmission(configs[source].loss, loop)
        u = _words(seed, 0, 3, page, 0, row, 1)
        outcomes.append((loop, bool(_single_photon(np.array([held]), tau, u)[0]), source))
    return outcomes


def _counting_reads(monkeypatch):
    """Record every ``_Bank.read`` as (key, kind, page, round, size)."""
    reads = []
    read = montecarlo._Bank.read

    def recorded(self, source, kind, page, rnd, size):
        reads.append(((self._seed, source), kind, page, rnd, size))
        return read(self, source, kind, page, rnd, size)

    monkeypatch.setattr(montecarlo._Bank, "read", recorded)
    return reads


def test_draws_per_trial_is_the_dense_count(monkeypatch):
    for t in range(1, 40):
        assert draws_per_trial(t) == 2 * t + 1
    # a source runs at most one round per bin for a trial, and a round
    # reads at most a gap, a thermal and a herald word; the page reads one
    # thinning word per trial
    configs = _bank_configs()
    reads = _counting_reads(monkeypatch)
    simulate_parallel_sources(configs, 5000, 5)
    words = sum(read[-1] for read in reads)
    assert 5000 < words <= 5000 * (len(configs) * 3 * 4 + 1)


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
        # S ~ 0.31 per bin: many trials take several rounds
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


_ORACLE_CONFIGS = {
    # S ~ 0.31 per bin: many trials take several rounds
    "mc_train": _train_config(),
    # nearly every trial heralds in the newest bin, in round 0
    "nbar30": ProtocolConfig(
        48, ConstantPump(30.0), DetectorModel(BUCKET, 0.9), LossModel(0.05, 0.9)
    ),
    # gaps of ~20 bins
    "t200": ProtocolConfig(
        200, ConstantPump(0.05), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    ),
    # rare heralds: most trials jump past the end of the train at once
    "rare": ProtocolConfig(
        50, ConstantPump(1e-3), DetectorModel(RESOLVED, 0.9), LossModel(0.9, 0.9)
    ),
    # the gap's divisor is capped; every trial jumps past the end
    "nbar1e-200": ProtocolConfig(
        50, ConstantPump(1e-200), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    ),
    "t1": ProtocolConfig(1, ConstantPump(0.7), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)),
    # a blind detector: the source reads no gap words
    "eta0": ProtocolConfig(
        6, ConstantPump(2.0), DetectorModel(BUCKET, 0.0), LossModel(0.9, 0.9)
    ),
    "lossless_resolved": ProtocolConfig(
        12, ConstantPump(1.2), DetectorModel(RESOLVED, 1.0), LossModel(1.0, 1.0)
    ),
    # a search never lands on a zero bin
    "per_bin_zeros": ProtocolConfig(
        8,
        PerBinPump((0.0, 3.0, 0.0, 0.0, 0.4, 0.0, 2.5, 0.0)),
        DetectorModel(BUCKET, 0.8),
        LossModel(0.85, 0.9),
    ),
    # no bin is vacuum; a resolved detector rarely heralds ~nbar photons,
    # so its trials take one round per bin
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


@pytest.mark.parametrize("config", _ORACLE_CONFIGS.values(), ids=_ORACLE_CONFIGS.keys())
def test_batch_run_matches_per_trial_oracle(small_pages, config):
    """The page engine runs each round for the live trials of a page at
    once; reading each trial's documented words on its own and applying
    the gap and herald rules landing by landing must give the same trials."""
    _check_against_oracle([config], 3, 300)


def _mixed_bank():
    # indices 0 and 2 share a per-bin configuration; index 1 has a constant
    # pump and other losses
    per_bin, constant = _bank_configs()[1], _mixed_config()
    return [per_bin, constant, per_bin]


@pytest.mark.parametrize("bank", ["heterogeneous", "identical", "mixed"])
def test_parallel_run_matches_per_trial_oracle(small_pages, bank):
    """The same for banks of three sources, where a later source searches
    only bins fresher than the earlier sources' freshest herald."""
    configs = {"heterogeneous": _bank_configs(), "identical": [_per_bin_config()] * 3,
               "mixed": _mixed_bank()}[bank]
    outcomes = _check_against_oracle(configs, 8, 400)
    assert {outcome[2] for outcome in outcomes} >= {0, 1, 2}


def test_a_configuration_passed_to_several_sources_is_built_once(monkeypatch):
    """The bank builds one source, loss chain included, per configuration
    object however many indices pass it, and each index still reads its
    own stream: an equal copy in place of the shared object, built on its
    own, gives the same run."""
    chains = []

    def counted(loss, loops):
        chains.append(loss)
        return transmission(loss, loops)

    monkeypatch.setattr(montecarlo, "transmission", counted)

    def run(configs):
        chains.clear()
        summary = simulate_parallel_sources(configs, 3000, 6)
        return len(chains), repr(summary)

    assert run([_per_bin_config()] * 64)[0] == 1
    assert run(_bank_configs())[0] == 3
    per_bin, constant, _ = bank = _mixed_bank()
    copy = ProtocolConfig(4, PerBinPump(per_bin.pump.mean_photon_numbers), per_bin.detector,
                          per_bin.loss)
    (shared, summary), (unshared, copied) = run(bank), run([per_bin, constant, copy])
    assert (shared, unshared) == (2, 3)
    assert summary == copied


def test_a_tie_goes_to_the_lowest_source():
    """Both sources herald in the one bin but for a vacuum (chance 1e-6).
    Source 1 transmits nothing, so had it won a trial no single photon
    could come out; source 0 keeps ~nbar photons at transmission
    1/nbar, one of which survives alone with chance ~1/4."""
    kept = ProtocolConfig(1, ConstantPump(1e6), DetectorModel(BUCKET, 1.0), LossModel(1e-6, 1.0))
    dark = ProtocolConfig(1, ConstantPump(1e6), DetectorModel(BUCKET, 1.0), LossModel(0.0, 1.0))
    outcomes = _check_against_oracle([kept, dark], 4, 400)
    assert {outcome[2] for outcome in outcomes} == {0}
    summary = simulate_parallel_sources([kept, dark], 20_000, 4)
    assert abs(summary.unconditional_fidelity.value - 0.25) < 0.02
    assert simulate_parallel_sources([dark, kept], 20_000, 4).unconditional_fidelity.value == 0.0


def _vacuum_chances(config):
    """Exact chance that a search from bin 0 lands on each bin, and that
    it finds no non-vacuum bin (last entry)."""
    q = [Fraction(1) / (1 + Fraction(x)) for x in config.bin_means().tolist()]
    chances, none = [], Fraction(1)
    for q_b in q:
        chances.append(none * (1 - q_b))
        none *= q_b
    return [float(c) for c in chances + [none]]


@pytest.mark.parametrize(
    "config",
    [
        ProtocolConfig(12, ConstantPump(0.15), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)),
        ProtocolConfig(
            8, PerBinPump((0.0, 3.0, 0.0, 0.0, 0.4, 0.0, 2.5, 0.0)),
            DetectorModel(BUCKET, 0.8), LossModel(0.85, 0.9),
        ),
    ],
    ids=["constant", "per_bin_zeros"],
)
def test_gaps_follow_the_vacuum_law(config):
    """The bin a search lands on is the documented scan to the bit, and its
    law is the thermal vacuum law: P(land on b) = P0^b (1 - P0), the
    product over earlier bins for a per-bin pump, within 5 sigma on 2e5
    uniforms; a zero bin is never landed on."""
    source = montecarlo._Source(config)
    t = config.time_bins
    uniforms = np.random.default_rng(17).random(200_000)
    bins = source.next_bin(np.zeros(uniforms.size, dtype=np.intp), uniforms)
    landed = np.minimum(bins, t).astype(np.intp)
    for u, b in zip(uniforms[:300].tolist(), landed[:300].tolist()):
        assert b == _oracle_next_bin(config, 0, u)
    counts = np.bincount(landed, minlength=t + 1)
    for count, p in zip(counts.tolist(), _vacuum_chances(config)):
        se = math.sqrt(p * (1.0 - p) / uniforms.size)
        assert abs(count / uniforms.size - p) <= 5.0 * se
        if p == 0.0:
            assert count == 0
    # searches that start later land at or after their start
    starts = np.arange(uniforms.size) % t
    assert (source.next_bin(starts, uniforms) >= starts).all()


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
    bank = montecarlo._Bank([_train_config()], 7)
    for kind, page, rnd in [(0, 0, 0), (1, 3, 5), (3, 2**50, 0), (2, 1, 99_999)]:
        assert np.array_equal(bank.read(2, kind, page, rnd, 70), _words(7, 2, kind, page, rnd, 0, 70))
    assert np.array_equal(_words(7, 2, 1, 3, 5, 9, 20), _words(7, 2, 1, 3, 5, 0, 29)[9:])


def test_distinct_addresses_read_disjoint_words():
    """Ranges of distinct (seed, source, kind, page, round) share no word:
    the words of 400 addresses, the extremes of every field included and
    one read a full page long, hold no repeated value (an overlap would
    repeat its words), and the same address reads the same words again."""
    seeds_sources = [(0, 0), (0, 1), (0, 2), (2**64 - 1, 0), (1, 0)]
    pages = [0, 1, 2, 2**50 - 1]
    rounds = [0, 1, 2, 99_999, 2**62 - 1]
    seen, total = set(), 0
    for seed, source in seeds_sources:
        bank = montecarlo._Bank([_train_config()], seed)
        for kind in range(4):
            for page in pages:
                for rnd in rounds:
                    size = 64 if (page, rnd) != (1, 1) else montecarlo._PAGE_TRIALS
                    words = bank.read(source, kind, page, rnd, size)
                    seen.update(words.tolist())
                    total += size
        again = montecarlo._Bank([_train_config()], seed).read(source, 2, 1, 2, 64)
        assert np.array_equal(bank.read(source, 2, 1, 2, 64), again)
    assert len(seen) == total


def test_a_bank_reads_every_stream_through_one_generator(monkeypatch):
    """64 sources build one Philox generator, not one per source index
    plus one for the thinning."""
    philox, made = np.random.Philox, []

    def counted(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    montecarlo._Bank([_train_config()] * 64, 3)
    assert len(made) == 1


@pytest.mark.parametrize("configs", [[_train_config()], _bank_configs()], ids=["m1", "m3"])
def test_no_range_is_read_twice(small_pages, monkeypatch, configs):
    """Each read fills one range from its first word without carrying into
    the next range, and no (key, kind, page, round) range is read twice.  In a round a source's thermal and
    herald reads are the same size and no larger than its gap read, and
    source 0 reads one thinning word per trial of each page."""
    reads = []
    read = montecarlo._Bank.read

    def recorded(self, source, kind, page, rnd, size):
        words = read(self, source, kind, page, rnd, size)
        state = self._gen.bit_generator.state["state"]
        assert tuple(state["counter"].tolist()) == ((size + 3) // 4, rnd, page, kind)
        key = tuple(state["key"].tolist())
        assert key == (self._seed, source)
        reads.append((key, kind, page, rnd, size))
        return words

    monkeypatch.setattr(montecarlo._Bank, "read", recorded)
    trials, seed = 300, 44
    simulate_parallel_sources(configs, trials, seed)
    ranges = [r[:4] for r in reads]
    assert len(ranges) == len(set(ranges))
    sizes = {r[:4]: r[4] for r in reads}
    for (key, kind, page, rnd), size in sizes.items():
        if kind in (1, 2):
            assert size == sizes[key, 3 - kind, page, rnd]
            assert size <= sizes[key, 0, page, rnd]
    pages = range(-(-trials // 64))
    thinning = {(key, page, rnd, size) for (key, kind, page, rnd), size in sizes.items() if kind == 3}
    assert thinning == {((seed, 0), page, 0, min(64, trials - 64 * page)) for page in pages}
    keys = {key for key, kind, *_ in reads if kind != 3}
    assert keys == {(seed, s) for s in range(len(configs))}


_WORKLOAD_POINTS = {
    # the benchmark's mc_train and mc_parallel points (--eta sets eta_d and
    # both losses), and the rare-herald end of the documented domain
    "mc_train": ([_train_config()], 5.0),
    "mc_parallel": (
        [ProtocolConfig(10, ConstantPump(0.1), DetectorModel(BUCKET, 0.95), LossModel(0.95, 0.95))]
        * 4,
        9.0,
    ),
    "t1e5_nbar1e-4": (
        [ProtocolConfig(100_000, ConstantPump(1e-4), DetectorModel(BUCKET, 0.9), LossModel(0.99, 0.999))],
        6.0,
    ),
}


@pytest.mark.parametrize("point", _WORKLOAD_POINTS, ids=_WORKLOAD_POINTS.keys())
def test_uniforms_per_trial_at_the_workload_points(monkeypatch, point):
    """Uniforms generated per trial, counted at ``_Bank.read``: the dense
    engine read 8.6 at mc_train's point and 31 at mc_parallel's, and
    22,000 at t = 1e5, where vacuum skipping reads ~4.2, ~7.7 and ~4.3."""
    configs, limit = _WORKLOAD_POINTS[point]
    reads = _counting_reads(monkeypatch)
    trials = 40_000 if configs[0].time_bins < 1000 else 4_000
    simulate_parallel_sources(configs, trials, 3)
    assert sum(read[-1] for read in reads) <= limit * trials


@pytest.mark.parametrize("nbar, trials", [(0.5, 20_000), (1e-4, 2_000)])
def test_long_train_memory_is_bounded(monkeypatch, nbar, trials):
    """t = 1e5 bins, the top of the documented domain: peak allocation
    stays under 64 MiB, and no read fills more than a page of words."""
    config = ProtocolConfig(
        100_000, ConstantPump(nbar), DetectorModel(BUCKET, 0.9), LossModel(0.99, 0.999)
    )
    reads = _counting_reads(monkeypatch)
    tracemalloc.start()
    try:
        summary = run_simulation(config, trials, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert max(read[-1] for read in reads) <= montecarlo._PAGE_TRIALS
    assert summary.herald_rate.value > 0.99


_EDGE_CONFIGS = {
    "nbar0": ProtocolConfig(5, ConstantPump(0.0), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)),
    "per_bin_zeros": _ORACLE_CONFIGS["per_bin_zeros"],
    "per_bin_all_zero": ProtocolConfig(
        3, PerBinPump((0.0, 0.0, 0.0)), DetectorModel(RESOLVED, 0.9), LossModel(0.9, 0.9)
    ),
    "nbar1e-200_t1e5": ProtocolConfig(
        100_000, ConstantPump(1e-200), DetectorModel(BUCKET, 0.9), LossModel(0.99, 0.999)
    ),
    **{
        f"cap4e15_{kind.value}": ProtocolConfig(
            3, ConstantPump(4e15), DetectorModel(kind, 0.9), LossModel(0.9, 0.9)
        )
        for kind in (RESOLVED, BUCKET)
    },
    "eta0": ProtocolConfig(6, ConstantPump(2.0), DetectorModel(RESOLVED, 0.0), LossModel(0.9, 0.9)),
    **{
        f"eta1_{kind.value}": ProtocolConfig(
            6, ConstantPump(2.0), DetectorModel(kind, 1.0), LossModel(0.9, 0.9)
        )
        for kind in (RESOLVED, BUCKET)
    },
    "t1": ProtocolConfig(1, ConstantPump(0.7), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)),
    "resolved": ProtocolConfig(
        50, ConstantPump(2.0), DetectorModel(RESOLVED, 0.9), LossModel(0.99, 0.999)
    ),
}


@pytest.mark.parametrize("name", _EDGE_CONFIGS, ids=_EDGE_CONFIGS.keys())
def test_edge_inputs_end_without_warnings(monkeypatch, name):
    """Each run ends, warns nothing, runs at most one round per bin, reads
    no word for a source that cannot herald, and agrees with the closed
    form's herald probability within 5 sigma."""
    config = _EDGE_CONFIGS[name]
    reads = _counting_reads(monkeypatch)
    trials = 2000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_simulation(config, trials, 6)
    rounds = {rnd for _, kind, _, rnd, _ in reads if kind == 0}
    assert len(rounds) <= config.time_bins
    if not _can_herald(config):
        assert [read[1] for read in reads] == [3]
    expected = outcome_distribution(config).herald_probability
    se = math.sqrt(expected * (1.0 - expected) / trials)
    assert abs(summary.herald_rate.value - expected) <= 5.0 * se + 1e-12
    if name == "nbar1e-200_t1e5":
        # one gap word per trial, then every trial is past the train
        assert summary.herald_rate.value == 0.0
        assert sorted(read[1:] for read in reads) == [
            (0, 0, 0, trials), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, trials)
        ]


def test_montecarlo_imports_nothing_from_analytic():
    """The Monte Carlo route reads only the models' laws, so it stays an
    independent check of the closed forms."""
    tree = ast.parse(Path(montecarlo.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("analytic" in name for name in imported), imported


def _closed_form_point(configs):
    """Herald probability and unconditional fidelity of a bank of
    identical sources, from the closed forms."""
    config, sources = configs[0], len(configs)
    report = fidelity_report(config)
    if sources == 1:
        return outcome_distribution(config).herald_probability, report.unconditional
    single = herald_single_shot(SourceModel(float(config.bin_means()[0])), config.detector)
    dist = m_source_distribution(single, config.time_bins, sources)
    return 1.0 - dist.no_herald, parallel_unconditional_fidelity(dist, report.per_loop)


@pytest.mark.parametrize("point", ["mc_train", "mc_parallel"])
def test_mean_z_over_forty_seeds_at_the_workload_points(point):
    """Forty fixed seeds (9001-9040, chosen before the first run) of
    150,000 trials: the mean z-score of the herald rate and of the
    unconditional fidelity against the closed form stays within 0.7 of 0,
    ~4.4 standard errors of a mean of 40 unit normals."""
    configs = _WORKLOAD_POINTS[point][0]
    herald, unconditional = _closed_form_point(configs)
    trials = 150_000
    z_herald, z_unconditional = [], []
    for seed in range(9001, 9041):
        summary = simulate_parallel_sources(configs, trials, seed)
        for z, value, p in (
            (z_herald, summary.herald_rate.value, herald),
            (z_unconditional, summary.unconditional_fidelity.value, unconditional),
        ):
            z.append((value - p) / math.sqrt(p * (1.0 - p) / trials))
    assert abs(np.mean(z_herald)) <= 0.7, np.mean(z_herald)
    assert abs(np.mean(z_unconditional)) <= 0.7, np.mean(z_unconditional)


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
    capped = ProtocolConfig(4, ConstantPump(5e15), a.detector, a.loss)
    # the sources are checked in order, each for its shape, then its pump
    for configs in ([a, b], [a, a, b, capped]):
        with pytest.raises(ValueError, match="^all parallel sources must share the same "
                           "number of time-bins$"):
            simulate_parallel_sources(configs, 100, 0)
    with pytest.raises(ValueError, match="cannot be sampled"):
        simulate_parallel_sources([a, capped, b], 100, 0)


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
    message = "^mean photon numbers above 4e\\+15 cannot be sampled in double precision$"
    with pytest.raises(ValueError, match=message):
        run_simulation(config, 10, 0)
    with pytest.raises(ValueError, match=message):
        simulate_trial([config], 0, 0)
    # after three indices that share one sampleable configuration
    sampleable = ProtocolConfig(2, ConstantPump(0.5), config.detector, config.loss)
    with pytest.raises(ValueError, match=message):
        simulate_parallel_sources([sampleable] * 3 + [config], 10, 0)
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
