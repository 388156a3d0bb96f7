"""Event-level Monte Carlo simulation of the loop-source protocol.

Each trial pumps the source once per time-bin, draws a thermal photon
number and a herald outcome per bin, keeps the most recent heralded bin
(the switch dumps anything held earlier), and thins the kept photons
through the accumulated switch and fibre losses at extraction.

Reproducibility contract: every trial owns a fixed-size block of a
counter-based random stream keyed by (seed, source index), with the
trial index mapped to a counter offset.  Results are therefore
bit-identical for a given (config, trials, seed) no matter how trials
are chunked or distributed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .models import (
    DetectorKind,
    OutcomeDistribution,
    ProtocolConfig,
    transmission,
)

# Trials are simulated in batches; the batch size only groups work and
# cannot influence results (each trial addresses its own counter block).
_MAX_BATCH = 1 << 16
_BATCH_BUDGET_DRAWS = 1 << 21

# Largest mean photon number whose geometric ratio nbar/(1+nbar) is
# still below 1 in double precision; beyond it inverse-CDF sampling
# would divide by log(1) = 0.
_MAX_SAMPLEABLE_NBAR = 4.0e15


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one simulated pulse train."""

    herald_loop_index: int | None
    photons_out: int
    heralded: bool

    def __post_init__(self) -> None:
        if self.heralded:
            if self.herald_loop_index is None:
                raise ValueError("heralded trial must carry a herald loop index")
        elif self.herald_loop_index is not None or self.photons_out != 0:
            raise ValueError("unheralded trial must have no loop index and no photons")


@dataclass(frozen=True)
class Estimate:
    """A probability estimate with its binomial standard error."""

    value: float
    standard_error: float


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregated Monte Carlo results.

    ``conditional_fidelity`` is None when no trial heralded (the
    estimate conditions on an event that never occurred).  The
    ``loop_counts`` are exact integers; ``loop_histogram`` holds the
    same data as frequencies.
    """

    trials: int
    herald_rate: Estimate
    conditional_fidelity: Estimate | None
    unconditional_fidelity: Estimate
    loop_histogram: OutcomeDistribution
    loop_counts: tuple[int, ...]
    seed: int


def draws_per_trial(time_bins: int) -> int:
    """Uniform draws consumed by one trial: one thermal and one herald
    draw per bin plus one output-thinning draw, padded to a whole number
    of 4-draw counter blocks so trial offsets are exactly addressable."""
    return 4 * ((2 * time_bins + 1 + 3) // 4)


def trial_stream(
    seed: int, trial_index: int, time_bins: int, source_index: int = 0
) -> np.random.Generator:
    """Random stream positioned at the start of one trial's draw block."""
    _check_seed(seed)
    if trial_index < 0:
        raise ValueError(f"trial index must be >= 0, got {trial_index}")
    blocks = draws_per_trial(time_bins) // 4
    return _substream(seed, source_index, trial_index * blocks)


def simulate_trial(config: ProtocolConfig, rng_stream: np.random.Generator) -> TrialOutcome:
    """Simulate one pulse train, consuming exactly
    ``draws_per_trial(config.time_bins)`` uniforms from the stream."""
    uniforms = rng_stream.random(draws_per_trial(config.time_bins)).reshape(1, -1)
    loop_index, held, out_uniform = _herald_batch(uniforms, config)
    taus = transmission(config.loss, np.arange(config.time_bins))
    photons = _thin_outputs(loop_index, held, out_uniform, taus, config.time_bins)
    if loop_index[0] == config.time_bins:
        return TrialOutcome(herald_loop_index=None, photons_out=0, heralded=False)
    return TrialOutcome(
        herald_loop_index=int(loop_index[0]), photons_out=int(photons[0]), heralded=True
    )


def run_simulation(config: ProtocolConfig, trials: int, seed: int) -> SimulationSummary:
    """Run independent trials of one source and aggregate the counts."""
    return simulate_parallel_sources([config], trials, seed)


def simulate_parallel_sources(
    configs: list[ProtocolConfig], trials: int, seed: int
) -> SimulationSummary:
    """Run several loop sources side by side and keep, per trial, the
    output of the source whose last herald is freshest (smallest loop
    index, ties to the lowest source index; tied sources have the same
    loss chain when their loss models agree, and the tie rule keeps the
    choice deterministic regardless).
    """
    if len(configs) == 0:
        raise ValueError("need at least one source configuration")
    time_bins = configs[0].time_bins
    for config in configs[1:]:
        if config.time_bins != time_bins:
            raise ValueError("all parallel sources must share the same number of time-bins")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials}")
    _check_seed(seed)
    for config in configs:
        _check_sampleable(config)

    m = len(configs)
    draws = draws_per_trial(time_bins)
    blocks = draws // 4
    batch = max(1024, min(_MAX_BATCH, _BATCH_BUDGET_DRAWS // (draws * m)))
    loops = np.arange(time_bins)
    tau_table = np.stack([transmission(config.loss, loops) for config in configs])

    loop_counts = np.zeros(time_bins + 1, dtype=np.int64)
    single_photon_trials = 0
    start = 0
    while start < trials:
        stop = min(start + batch, trials)
        rows = stop - start
        loop_index = np.empty((m, rows), dtype=np.int64)
        held = np.empty((m, rows), dtype=np.int64)
        out_uniform = np.empty((m, rows))
        for s, config in enumerate(configs):
            gen = _substream(seed, s, start * blocks)
            uniforms = gen.random((rows, draws))
            loop_index[s], held[s], out_uniform[s] = _herald_batch(uniforms, config)
        winner = np.argmin(loop_index, axis=0)
        cols = np.arange(rows)
        best_loop = loop_index[winner, cols]
        best_held = held[winner, cols]
        best_uniform = out_uniform[winner, cols]
        best_tau = tau_table[0] if m == 1 else tau_table[winner]
        photons = _thin_outputs(best_loop, best_held, best_uniform, best_tau, time_bins)
        loop_counts += np.bincount(best_loop, minlength=time_bins + 1)
        single_photon_trials += int(np.count_nonzero(photons == 1))
        start = stop

    return _summarize(trials, seed, loop_counts, single_photon_trials)


def _summarize(
    trials: int, seed: int, loop_counts: np.ndarray, single_photon_trials: int
) -> SimulationSummary:
    heralded = trials - int(loop_counts[-1])
    herald_rate = _proportion(heralded, trials)
    unconditional = _proportion(single_photon_trials, trials)
    conditional = _proportion(single_photon_trials, heralded) if heralded > 0 else None
    frequencies = tuple(float(c) / trials for c in loop_counts)
    return SimulationSummary(
        trials=trials,
        herald_rate=herald_rate,
        conditional_fidelity=conditional,
        unconditional_fidelity=unconditional,
        loop_histogram=OutcomeDistribution(frequencies),
        loop_counts=tuple(int(c) for c in loop_counts),
        seed=seed,
    )


def _proportion(successes: int, denominator: int) -> Estimate:
    p = successes / denominator
    return Estimate(value=p, standard_error=math.sqrt(p * (1.0 - p) / denominator))


def _herald_batch(uniforms: np.ndarray, config: ProtocolConfig):
    """Vectorized herald stage for a batch of trials.

    Returns per trial the winning loop index (time_bins when nothing
    heralded), the pre-loss photon number held for it, and the untouched
    output-thinning uniform.
    """
    t = config.time_bins
    photon_numbers = _thermal_inverse_cdf(uniforms[:, :t], config.bin_means())
    herald_prob = _herald_probability(photon_numbers, config)
    heralds = uniforms[:, t : 2 * t] < herald_prob
    any_herald = heralds.any(axis=1)
    # argmax picks the first heralding column, which is the most recent
    # bin because column index equals loops before output.
    first = np.argmax(heralds, axis=1)
    loop_index = np.where(any_herald, first, t)
    rows = np.arange(uniforms.shape[0])
    held = np.where(any_herald, photon_numbers[rows, np.minimum(first, t - 1)], 0)
    return loop_index, held, uniforms[:, 2 * t]


def _thermal_inverse_cdf(uniforms: np.ndarray, bin_means: np.ndarray) -> np.ndarray:
    """Map uniforms to thermal photon numbers per bin via the geometric
    quantile function; column j uses the mean of bin j."""
    ratio = bin_means / (1.0 + bin_means)
    safe = np.where(ratio > 0.0, ratio, 0.5)
    log_ratio = np.where(ratio > 0.0, np.log(safe), -np.inf)
    return np.floor(np.log1p(-uniforms) / log_ratio).astype(np.int64)


def _herald_probability(photon_numbers: np.ndarray, config: ProtocolConfig) -> np.ndarray:
    """Chance the detector flags a herald given each bin's photon number.

    One Bernoulli draw against this value is distributed identically to
    sampling the detector's count and testing it, but costs a single
    uniform per bin.
    """
    eta = config.detector.efficiency
    n = photon_numbers.astype(float)
    if eta == 1.0:
        if config.detector.kind is DetectorKind.NUMBER_RESOLVED:
            return (photon_numbers == 1).astype(float)
        return (photon_numbers >= 1).astype(float)
    log_miss = math.log1p(-eta)
    if config.detector.kind is DetectorKind.NUMBER_RESOLVED:
        return eta * n * np.exp((n - 1.0) * log_miss)
    return -np.expm1(n * log_miss)


def _thin_outputs(
    loop_index: np.ndarray,
    held: np.ndarray,
    out_uniform: np.ndarray,
    tau_by_loop: np.ndarray,
    time_bins: int,
) -> np.ndarray:
    """Binomial thinning of the held photons through the winner's loss
    chain, applied once at extraction (the composition of the per-pass
    losses).  Unheralded trials emit nothing."""
    photons = np.zeros(loop_index.shape[0], dtype=np.int64)
    idx = np.nonzero(loop_index < time_bins)[0]
    if idx.size == 0:
        return photons
    if tau_by_loop.ndim == 1:
        tau = tau_by_loop[loop_index[idx]]
    else:
        tau = tau_by_loop[idx, loop_index[idx]]
    drawn = stats.binom.ppf(out_uniform[idx], held[idx], tau)
    photons[idx] = np.maximum(drawn, 0.0).astype(np.int64)
    return photons


def _substream(seed: int, source_index: int, block_offset: int) -> np.random.Generator:
    key = np.array([seed, source_index], dtype=np.uint64)
    bit_gen = np.random.Philox(key=key)
    if block_offset:
        bit_gen = bit_gen.advance(block_offset)
    return np.random.Generator(bit_gen)


def _check_seed(seed: int) -> None:
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


def _check_sampleable(config: ProtocolConfig) -> None:
    if np.any(config.bin_means() > _MAX_SAMPLEABLE_NBAR):
        raise ValueError(
            f"mean photon numbers above {_MAX_SAMPLEABLE_NBAR:g} cannot be "
            "sampled in double precision"
        )
