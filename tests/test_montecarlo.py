import numpy as np
import pytest

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
    trial_stream,
)
from loopsource.montecarlo import draws_per_trial

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


def test_draws_per_trial_is_block_aligned():
    for t in range(1, 40):
        draws = draws_per_trial(t)
        assert draws % 4 == 0
        assert draws >= 2 * t + 1


def test_trial_outcomes_are_well_formed():
    config = _mixed_config()
    for i in range(300):
        outcome = simulate_trial(config, trial_stream(12, i, config.time_bins))
        if outcome.heralded:
            assert 0 <= outcome.herald_loop_index < config.time_bins
            assert outcome.photons_out >= 0
        else:
            assert outcome.herald_loop_index is None
            assert outcome.photons_out == 0


@pytest.mark.parametrize("config", [_mixed_config(), _per_bin_config()])
def test_per_trial_streams_reproduce_the_batch_run(config):
    """Addressing trial i directly must give the exact trial the batched
    engine produced, so the two paths are interchangeable evidence."""
    trials, seed = 2000, 5
    counts = [0] * (config.time_bins + 1)
    singles = 0
    for i in range(trials):
        outcome = simulate_trial(config, trial_stream(seed, i, config.time_bins))
        index = outcome.herald_loop_index if outcome.heralded else config.time_bins
        counts[index] += 1
        if outcome.heralded and outcome.photons_out == 1:
            singles += 1
    summary = run_simulation(config, trials, seed)
    assert tuple(counts) == summary.loop_counts
    assert singles / trials == summary.unconditional_fidelity.value


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
