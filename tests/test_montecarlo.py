import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

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
    m_source_distribution,
    outcome_distribution,
    run_simulation,
    simulate_parallel_sources,
    simulate_trial,
)
from loopsource import montecarlo
from loopsource.cli import main
from loopsource.montecarlo import (
    _COLUMN_SEGMENT,
    _TAIL_SEGMENT,
    _Stream,
    _herald_batch,
    _herald_probability,
    _layout,
    _read_columns,
    _read_tails,
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
    # the benchmark's mc_train point: S ~ 0.31 per bin, prefix 4 and
    # column segment 12 of 50 bins
    return ProtocolConfig(
        50, ConstantPump(0.5), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    )


def _philox(seed, source_index, segment, index):
    """numpy's own generator at the start of one counter range."""
    key = np.array([seed, source_index], dtype=np.uint64)
    counter = np.array([0, index, segment, 0], dtype=np.uint64)
    bit_gen = np.random.Philox(key=key, counter=counter)
    return np.random.Generator(bit_gen)


def _full_width_uniforms(config, seed, trials, source_index=0):
    """Every uniform of trials 0..trials-1, one row per trial in the
    order of ``draws_per_trial``, generated natively range by range:
    column ranges for bins [0, D) and the thinning draw, tail ranges for
    bins [D, t)."""
    t = config.time_bins
    column_bins = _layout(config)[1]
    uniforms = np.empty((trials, draws_per_trial(t)))
    for j in (*range(column_bins), *range(t, t + column_bins), 2 * t):
        uniforms[:, j] = _philox(seed, source_index, _COLUMN_SEGMENT, j).random(trials)
    if column_bins < t:
        for i in range(trials):
            tail = _philox(seed, source_index, _TAIL_SEGMENT, i).random(2 * (t - column_bins))
            uniforms[i, column_bins:t] = tail[: t - column_bins]
            uniforms[i, t + column_bins : 2 * t] = tail[t - column_bins :]
    return uniforms


def test_draws_per_trial_counts_the_uniforms_a_trial_reads(monkeypatch):
    for t in range(1, 40):
        assert draws_per_trial(t) == 2 * t + 1
    # a replayed trial reads its column segment, plus its tail when it is
    # still unheralded after bin D: then every uniform of the trial
    config = _train_config()
    column_bins = _layout(config)[1]
    read = _Stream.read
    words = []

    def counted(self, segment, index, word, out):
        words[-1] += out.size
        read(self, segment, index, word, out)

    monkeypatch.setattr(_Stream, "read", counted)
    for i in range(500):
        words.append(0)
        simulate_trial(config, 5, i)
    assert set(words) == {2 * column_bins + 1, draws_per_trial(config.time_bins)}


def test_trial_outcomes_are_well_formed():
    config = _mixed_config()
    for i in range(300):
        outcome = simulate_trial(config, 12, i)
        if outcome.heralded:
            assert 0 <= outcome.herald_loop_index < config.time_bins
        else:
            assert outcome.herald_loop_index is None
            assert not outcome.single_photon


@pytest.mark.parametrize(
    "config",
    [
        _mixed_config(),
        _per_bin_config(),
        # lossless: every transmission is exactly 1
        ProtocolConfig(3, ConstantPump(0.9), DetectorModel(BUCKET, 0.8), LossModel(1.0, 1.0)),
        # heavy pump: at this seed and train length a trial holds 318 photons
        ProtocolConfig(48, ConstantPump(30.0), DetectorModel(BUCKET, 0.9), LossModel(0.05, 0.9)),
        # column segment 12 of 50 bins: survivors read their tail range
        _train_config(),
        # pump just below the sampler's limit of 4e15 (warnings fail the
        # suite); the first loop keeps about one of the ~nbar held photons
        *(
            ProtocolConfig(2, ConstantPump(3.9e15), DetectorModel(kind, 0.9), LossModel(3e-16, 1.0))
            for kind in (RESOLVED, BUCKET)
        ),
    ],
)
def test_per_trial_streams_reproduce_the_batch_run(config):
    """Addressing trial i directly must give the exact trial the batched
    engine produced, so the two paths are interchangeable evidence."""
    trials, seed = 2000, 5
    t, column_bins = config.time_bins, _layout(config)[1]
    counts = [0] * (t + 1)
    singles = 0
    for i in range(trials):
        outcome = simulate_trial(config, seed, i)
        index = outcome.herald_loop_index if outcome.heralded else t
        counts[index] += 1
        if outcome.single_photon:
            singles += 1
    summary = run_simulation(config, trials, seed)
    assert tuple(counts) == summary.loop_counts
    assert singles / trials == summary.unconditional_fidelity.value
    if config == _train_config():
        # some trials herald in bins only their tail range holds
        assert column_bins < t and sum(counts[column_bins:t]) > 0


_LAYOUT_CONFIGS = {
    "mc_train": _train_config(),
    # prefix 1: nearly every trial heralds in the newest bin
    "nbar30": ProtocolConfig(
        48, ConstantPump(30.0), DetectorModel(BUCKET, 0.9), LossModel(0.05, 0.9)
    ),
    # prefix 32 of 200: survivors reach the tail block [D, t)
    "t200": ProtocolConfig(
        200, ConstantPump(0.05), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    ),
    # rare heralds: the prefix is the whole train
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


def test_layout_configurations_cover_every_prefix_length():
    layouts = [(*_layout(c), c.time_bins) for c in _LAYOUT_CONFIGS.values()]
    assert all(1 <= d <= column_bins <= t for d, column_bins, t in layouts)
    assert any(d == 1 < t for d, _, t in layouts)
    assert any(1 < d < t for d, _, t in layouts)
    assert any(d == t > 1 for d, _, t in layouts)
    assert any(d == t == 1 for d, _, t in layouts)
    # column segments that end inside the train (all three stages run) and
    # at its end (no tail block)
    assert any(d < column_bins < t for d, column_bins, t in layouts)
    assert any(d < column_bins == t for d, column_bins, t in layouts)


@pytest.mark.parametrize("config", _LAYOUT_CONFIGS.values(), ids=_LAYOUT_CONFIGS.keys())
def test_herald_stage_matches_full_width_oracle(config):
    """The herald stage skips bins that cannot hold a trial's freshest
    herald; evaluating every bin of every trial must give the same
    result row for row."""
    t, trials = config.time_bins, 20_000
    uniforms = _full_width_uniforms(config, 3, trials)
    photon_numbers = _thermal_inverse_cdf(uniforms[:, :t].T, config.bin_means()).T
    heralds = uniforms[:, t : 2 * t] < _herald_probability(photon_numbers, config)
    heralded = heralds.any(axis=1)
    first = np.argmax(heralds, axis=1)
    expected_loop = np.where(heralded, first, t)
    expected_held = photon_numbers[np.arange(len(first)), first][heralded]

    stream = _Stream(3, 0)
    columns = np.empty((2 * _layout(config)[1] + 1, trials))
    _read_columns(stream, config, 0, columns)
    loop_index, held, out_uniform = _herald_batch(columns, config, stream, 0)
    assert np.array_equal(loop_index, expected_loop)
    assert np.array_equal(held[heralded], expected_held)
    assert np.array_equal(out_uniform, uniforms[:, 2 * t])


@pytest.mark.parametrize("sources", [1, 3])
def test_results_do_not_depend_on_the_batch_size(monkeypatch, sources):
    configs = [_train_config()] * sources
    trials, seed = 5000, 44
    tail_trials = set()
    read_tails = montecarlo._read_tails

    def recorded(stream, trial_indices, width):
        tail_trials.update(trial_indices)
        return read_tails(stream, trial_indices, width)

    monkeypatch.setattr(montecarlo, "_read_tails", recorded)
    whole = simulate_parallel_sources(configs, trials, seed)
    calls = []

    def counted(columns, config, stream, first_trial):
        calls.append(columns.shape[1])
        return _herald_batch(columns, config, stream, first_trial)

    monkeypatch.setattr(montecarlo, "_MAX_BATCH", 1024)
    monkeypatch.setattr(montecarlo, "_BATCH_BUDGET_DRAWS", 1024)
    monkeypatch.setattr(montecarlo, "_herald_batch", counted)
    chunked = simulate_parallel_sources(configs, trials, seed)
    assert calls == [1024] * (4 * sources) + [904] * sources
    assert chunked == whole
    # some trials herald in bins only their tail range holds
    t, column_bins = configs[0].time_bins, _layout(configs[0])[1]
    loops = [
        simulate_trial(configs[0], seed, i, source_index=s).herald_loop_index
        for i in sorted(tail_trials)
        for s in range(sources)
    ]
    assert any(loop is not None and loop >= column_bins for loop in loops)
    if sources == 1:
        assert sum(whole.loop_counts[column_bins:t]) > 0


@pytest.mark.parametrize(
    "config",
    [
        ProtocolConfig(6, ConstantPump(0.3), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.95)),
        # column segment 7 of 10 bins: some sources read their tail range
        ProtocolConfig(10, ConstantPump(1.0), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.95)),
    ],
    ids=["columns_only", "tail"],
)
def test_per_trial_streams_reproduce_the_parallel_run(config):
    """Replaying every source of every trial and keeping the freshest
    herald (ties to the lowest source index) must give the batch run."""
    sources, trials, seed = 3, 1500, 8
    t, column_bins = config.time_bins, _layout(config)[1]
    counts = [0] * (t + 1)
    singles = ties = in_tail = 0
    for i in range(trials):
        outcomes = [simulate_trial(config, seed, i, source_index=s) for s in range(sources)]
        loops = [o.herald_loop_index if o.heralded else t for o in outcomes]
        best = min(loops)
        winner = outcomes[loops.index(best)]
        ties += best < t and loops.count(best) > 1
        in_tail += any(column_bins <= loop < t for loop in loops)
        counts[best] += 1
        singles += winner.single_photon
    assert ties > 0
    assert (in_tail > 0) == (column_bins < t)
    summary = simulate_parallel_sources([config] * sources, trials, seed)
    assert tuple(counts) == summary.loop_counts
    assert singles / trials == summary.unconditional_fidelity.value


def test_stream_ranges_are_native_philox_ranges():
    """A column range read batch by batch at the engine's 1024-row
    boundaries, a single replayed word and whole tail ranges equal one
    native Generator.random over the same counter range."""
    stream = _Stream(7, 2)
    column = np.empty(5000)
    for first in range(0, 5000, 1024):
        stream.read(_COLUMN_SEGMENT, 33, first, column[first : first + 1024])
    assert np.array_equal(column, _philox(7, 2, _COLUMN_SEGMENT, 33).random(5000))
    word = np.empty(1)
    stream.read(_COLUMN_SEGMENT, 33, 1027, word)
    assert word[0] == column[1027]
    trials = [0, 33, 4097, 2**64 - 1]
    tails = _read_tails(stream, trials, 70)
    for tail, trial in zip(tails, trials):
        assert np.array_equal(tail, _philox(7, 2, _TAIL_SEGMENT, trial).random(70))
    assert not np.array_equal(tails[1], column[:70])


def test_stream_ranges_never_share_a_counter(monkeypatch):
    """Every read of a run stays inside its own counter range (the block
    count never carries into the range words), and within a range no
    word is read twice, so distinct (source, column) ranges and the tail
    ranges of distinct trials never share a counter."""
    reads = []
    read = _Stream.read

    def recorded(self, segment, index, word, out):
        read(self, segment, index, word, out)
        counter = self._gen.bit_generator.state["state"]["counter"].tolist()
        reads.append((self._key, segment, index, word, out.size, tuple(counter)))

    monkeypatch.setattr(_Stream, "read", recorded)
    monkeypatch.setattr(montecarlo, "_MAX_BATCH", 1024)
    monkeypatch.setattr(montecarlo, "_BATCH_BUDGET_DRAWS", 1024)
    config, trials, seed = _train_config(), 5000, 44
    simulate_parallel_sources([config] * 2, trials, seed)

    spans = {}
    for key, segment, index, word, size, counter in reads:
        # the last block generated is the one holding the last word read
        assert counter == ((word + size + 3) // 4, index, segment, 0)
        spans.setdefault((key, segment, index), []).append((word, word + size))
    for ranges in spans.values():
        ranges.sort()
        assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:]))
    # each source read its 2D + 1 column ranges batch by batch and the
    # whole tail range of some trials, once each
    t, column_bins = config.time_bins, _layout(config)[1]
    columns = (*range(column_bins), *range(t, t + column_bins), 2 * t)
    batches = [(first, min(first + 1024, trials)) for first in range(0, trials, 1024)]
    keys = [(seed, source) for source in range(2)]
    column_ranges = {(k, i): r for (k, seg, i), r in spans.items() if seg == _COLUMN_SEGMENT}
    assert column_ranges == {(key, column): batches for key in keys for column in columns}
    tail_ranges = {(k, i): r for (k, seg, i), r in spans.items() if seg == _TAIL_SEGMENT}
    assert {k for k, _ in tail_ranges} == set(keys)
    assert all(r == [(0, 2 * (t - column_bins))] for r in tail_ranges.values())


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
        simulate_trial(config, True, 0)
    with pytest.raises(ValueError):
        simulate_trial(config, 0, True)
    with pytest.raises(ValueError):
        simulate_trial(config, 0, -1)
    with pytest.raises(ValueError):
        simulate_trial(config, 0, 2**64)
    # the last addressable seed, trial and source still replay
    simulate_trial(config, 2**64 - 1, 2**64 - 1, source_index=2**64 - 1)


def _oracle_boundaries(n: int, tau: float) -> tuple[Fraction, Fraction]:
    """Exact rational P(0) and P(0) + P(1) of Binomial(n, tau)."""
    keep = Fraction(tau)
    p0 = (1 - keep) ** n
    return p0, p0 + math.comb(n, 1) * keep * (1 - keep) ** (n - 1)


@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.3, 0.9, 1.0 - 1e-12, 1.0])
def test_single_photon_test_matches_exact_oracle(tau):
    # Generator.random yields multiples of 2**-53, so a CDF boundary below
    # that step lies below every nonzero uniform and is probed by it.
    smallest = 2.0**-53
    held, uniforms, expected = [], [], []
    for n in range(1, 61):
        lo, hi = _oracle_boundaries(n, tau)
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


def test_sampler_rejects_pump_above_its_limit(capsys):
    config = ProtocolConfig(
        2, ConstantPump(5e15), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.9)
    )
    with pytest.raises(ValueError, match="cannot be sampled"):
        run_simulation(config, 10, 0)
    with pytest.raises(ValueError, match="cannot be sampled"):
        simulate_trial(config, 0, 0)
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
