"""Event-level Monte Carlo simulation of the loop-source protocol.

Each trial pumps the source once per time-bin, draws a thermal photon
number and a herald outcome per bin, keeps the most recent heralded bin
(the switch dumps anything held earlier), and thins the kept photons
through the accumulated switch and fibre losses at extraction.  The
thinning is the binomial inverse CDF at one uniform ``u``: with ``P0``
and ``P1`` the chances that none or exactly one of the held photons
survives, ``u <= P0`` is vacuum, ``P0 < u <= P0 + P1`` is a single
photon and anything above is more.  Only the single-photon event is
counted, so the engine evaluates those two terms in closed form, O(1)
per trial for every photon number the sampler can draw.

Reproducibility contract: a trial reads ``2t + 1`` uniforms, numbered
``j``: the thermal draw of bin ``k`` is ``j = k``, its herald draw
``j = t + k`` and the thinning draw ``j = 2t``.  They come from a Philox
stream keyed by (seed, source index) whose 256-bit counter is split into
disjoint ranges, two segments of them:

* the column segment holds bins ``[0, D)`` and the thinning draw: uniform
  ``j`` of trial ``i`` is word ``i`` of column range ``j``, so a batch
  generates each column natively and contiguously;
* the tail segment holds bins ``[D, t)``: trial ``i`` owns tail range
  ``i``, which holds its thermal then its herald draws of those bins in
  bin order, and is generated only for a trial still unheralded after
  bin ``D``.

``D`` depends on the configuration alone (see ``_layout``).  Every
uniform therefore has one fixed address, and results are bit-identical
for a given (config, trials, seed) no matter how trials are chunked;
``simulate_trial`` rebuilds one trial from the same addresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _freshest_herald, _single_shot_array
from .models import (
    DetectorKind,
    OutcomeDistribution,
    ProtocolConfig,
    _check_count,
    _is_int,
    transmission,
)

# Trials are simulated in batches; the batch size only groups work and
# cannot influence results (each uniform has a fixed stream address).
# The budget caps the column-segment uniforms of one batch over all
# sources (8 MB), which also bounds the herald stage's temporaries.
_MAX_BATCH = 1 << 16
_BATCH_BUDGET_DRAWS = 1 << 20

# Largest mean photon number whose geometric ratio nbar/(1+nbar) is
# still below 1 in double precision; beyond it inverse-CDF sampling
# would divide by log(1) = 0.
_MAX_SAMPLEABLE_NBAR = 4.0e15

# The herald stage evaluates bins for the whole batch until at most this
# expected share of trials is still unheralded, then only for those.
_DENSE_UNHERALDED_SHARE = 0.25

# The column segment covers the bins up to the one by which at most this
# expected share of trials is still unheralded; the rest generate their
# older bins one trial at a time.
_COLUMN_UNHERALDED_SHARE = 1.0 / 64.0

# Third word of the Philox counter: which segment a range belongs to.
# The second word numbers the ranges of a segment, and the first counts
# 4-word blocks within a range.
_COLUMN_SEGMENT = 0
_TAIL_SEGMENT = 1


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one simulated pulse train.

    ``herald_loop_index`` is the number of loops the kept photons made
    before output (None when no bin heralded), and ``single_photon``
    whether exactly one of them survived the losses at extraction: the
    event the batch engine counts, decided by the same test.
    """

    herald_loop_index: int | None
    single_photon: bool
    heralded: bool

    def __post_init__(self) -> None:
        if self.heralded:
            if self.herald_loop_index is None:
                raise ValueError("heralded trial must carry a herald loop index")
        elif self.herald_loop_index is not None or self.single_photon:
            raise ValueError("unheralded trial must have no loop index and no photon")


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
    """Uniforms a trial can read: one thermal and one herald draw per bin
    plus one output-thinning draw."""
    return 2 * time_bins + 1


def simulate_trial(
    config: ProtocolConfig, seed: int, trial_index: int, source_index: int = 0
) -> TrialOutcome:
    """Replay trial ``trial_index`` of source ``source_index`` of a seeded
    run: its uniforms are read from their stream addresses and go through
    the batch engine's herald stage, so the outcome is the one the batch
    run produced."""
    _check_seed(seed)
    for name, value in (("trial index", trial_index), ("source index", source_index)):
        if not (_is_int(value) and 0 <= value < 2**64):
            raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
    _check_sampleable(config)
    stream = _Stream(seed, source_index)
    columns = np.empty((2 * _layout(config)[1] + 1, 1))
    _read_columns(stream, config, trial_index, columns)
    loop_index, held, out_uniform = _herald_batch(columns, config, stream, trial_index)
    loop = int(loop_index[0])
    if loop == config.time_bins:
        return TrialOutcome(herald_loop_index=None, single_photon=False, heralded=False)
    tau = transmission(config.loss, np.arange(config.time_bins))[loop]
    single = _single_photon(held, tau, out_uniform)
    return TrialOutcome(herald_loop_index=loop, single_photon=bool(single[0]), heralded=True)


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
    _check_count(trials, "trials")
    _check_seed(seed)
    for config in configs:
        _check_sampleable(config)

    m = len(configs)
    widths = [2 * _layout(config)[1] + 1 for config in configs]
    batch = max(1024, min(_MAX_BATCH, _BATCH_BUDGET_DRAWS // sum(widths)))
    # One buffer serves every source in turn; its rows are column ranges.
    buffer = np.empty((max(widths), min(batch, trials)))
    streams = [_Stream(seed, s) for s in range(m)]
    loops = np.arange(time_bins)
    tau_table = np.stack([transmission(config.loss, loops) for config in configs])

    loop_counts = np.zeros(time_bins + 1, dtype=np.int64)
    single_photon_trials = 0
    start = 0
    while start < trials:
        stop = min(start + batch, trials)
        rows = stop - start
        loop_index = np.empty((m, rows), dtype=np.int64)
        held = np.empty((m, rows))
        out_uniform = np.empty((m, rows))
        for s, config in enumerate(configs):
            columns = buffer[: widths[s], :rows]
            _read_columns(streams[s], config, start, columns)
            loop_index[s], held[s], out_uniform[s] = _herald_batch(
                columns, config, streams[s], start
            )
        winner = np.argmin(loop_index, axis=0)
        cols = np.arange(rows)
        best_loop = loop_index[winner, cols]
        # Unheralded trials hold no photons, so the test reads False for
        # them whatever loss chain entry they are paired with.
        best_tau = tau_table[winner, np.minimum(best_loop, time_bins - 1)]
        single = _single_photon(held[winner, cols], best_tau, out_uniform[winner, cols])
        loop_counts += np.bincount(best_loop, minlength=time_bins + 1)
        single_photon_trials += int(np.count_nonzero(single))
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


def _herald_batch(
    columns: np.ndarray, config: ProtocolConfig, stream: _Stream, first_trial: int
):
    """Vectorized herald stage for the batch of trials from ``first_trial``.

    ``columns`` holds the batch's column segment, one row per range
    (see ``_read_columns``) and one column per trial.  Returns per trial
    the winning loop index (time_bins when nothing heralded), the
    pre-loss photon number held for it, and the untouched
    output-thinning uniform.

    Only the freshest herald counts, so bins older than a trial's first
    heralding bin cannot change its result and are not evaluated.  Bins
    ``[0, d)`` run over the whole batch, one gathered block ``[d, D)``
    over the trials still unheralded, and one block ``[D, t)``, read
    from ``stream``'s tail ranges, over those still unheralded after it.
    Each evaluated cell goes through the same expressions as a
    full-width pass, and the layout depends on the configuration alone,
    so results do not depend on it.
    """
    t = config.time_bins
    means = config.bin_means()
    d, column_bins = _layout(config)
    tail_bins = t - column_bins
    thermal, herald = columns[:column_bins], columns[column_bins : 2 * column_bins]
    loop_index, held = _first_herald(thermal[:d], herald[:d], means[:d], config)
    active = np.flatnonzero(loop_index == d) if d < t else np.empty(0, dtype=np.intp)
    loop_index[active] = t
    for start, stop in ((d, column_bins), (column_bins, t)):
        if start == stop or not active.size:
            continue
        if start < column_bins:
            block_thermal, block_herald = thermal[start:, active], herald[start:, active]
        else:
            trials = [first_trial + row for row in active.tolist()]
            tails = _read_tails(stream, trials, 2 * tail_bins)
            # a tail holds the thermal draws of bins [D, t), then the herald draws
            block_thermal, block_herald = tails[:, :tail_bins].T, tails[:, tail_bins:].T
        index, block_held = _first_herald(block_thermal, block_herald, means[start:stop], config)
        hit = index < stop - start
        loop_index[active[hit]] = start + index[hit]
        held[active[hit]] = block_held[hit]
        active = active[~hit]
    return loop_index, held, columns[2 * column_bins]


def _layout(config: ProtocolConfig) -> tuple[int, int]:
    """The dense prefix ``d`` of the herald stage and the width ``D`` of
    the column segment: the number of leading bins through the first one
    by which at most ``_DENSE_UNHERALDED_SHARE``, respectively
    ``_COLUMN_UNHERALDED_SHARE``, of trials are expected to be still
    unheralded, or all of them."""
    singles = _single_shot_array(
        config.bin_means(), config.detector.efficiency, config.detector.kind
    )
    _, unheralded = _freshest_herald(singles, 1.0 - singles)

    def through(share: float) -> int:
        below = np.flatnonzero(unheralded <= share)
        return int(below[0]) + 1 if below.size else config.time_bins

    return through(_DENSE_UNHERALDED_SHARE), through(_COLUMN_UNHERALDED_SHARE)


class _Stream:
    """The Philox stream of one (seed, source index) key, read by address:
    ``read`` fills an array with consecutive words of one counter range."""

    def __init__(self, seed: int, source_index: int) -> None:
        self._key = (seed, source_index)
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array(self._key, dtype=np.uint64))
        )

    def read(self, segment: int, index: int, word: int, out: np.ndarray) -> None:
        """Fill ``out`` with the uniforms at words ``word, word + 1, ...``
        of range ``index`` of ``segment``.  Each 4-word block has its own
        counter value, so this is the same as generating the range from
        its start and dropping the first ``word`` uniforms."""
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (word // 4, index, segment, 0), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if word % 4:
            self._gen.random(word % 4)
        self._gen.random(out=out)


def _read_columns(
    stream: _Stream, config: ProtocolConfig, first_trial: int, out: np.ndarray
) -> None:
    """Fill ``out`` (2D + 1 rows, one column per trial from
    ``first_trial``) with the column segment: the thermal draws of bins
    ``[0, D)``, their herald draws and the thinning draw."""
    t = config.time_bins
    column_bins = (out.shape[0] - 1) // 2
    ranges = (*range(column_bins), *range(t, t + column_bins), 2 * t)
    for row, index in zip(out, ranges):
        stream.read(_COLUMN_SEGMENT, index, first_trial, row)


def _read_tails(stream: _Stream, trials: list[int], width: int) -> np.ndarray:
    """The first ``width`` words of the given trials' tail ranges, one
    row each: the thermal then the herald draws of bins ``[D, t)``."""
    out = np.empty((len(trials), width))
    for row, trial in zip(out, trials):
        stream.read(_TAIL_SEGMENT, trial, 0, row)
    return out


def _first_herald(
    thermal_uniforms: np.ndarray,
    herald_uniforms: np.ndarray,
    bin_means: np.ndarray,
    config: ProtocolConfig,
):
    """First heralding bin of each trial (the number of bins when none)
    and the photon number drawn there (0 when none).  Rows are bins and
    columns trials."""
    photon_numbers = _thermal_inverse_cdf(thermal_uniforms, bin_means)
    heralds = herald_uniforms < _herald_probability(photon_numbers, config)
    any_herald = heralds.any(axis=0)
    # argmax picks the first heralding row, which is the most recent
    # bin because rows run from newest to oldest.
    first = np.argmax(heralds, axis=0)
    index = np.where(any_herald, first, heralds.shape[0])
    trials = np.arange(heralds.shape[1])
    return index, np.where(any_herald, photon_numbers[first, trials], 0)


def _thermal_inverse_cdf(uniforms: np.ndarray, bin_means: np.ndarray) -> np.ndarray:
    """Map uniforms to thermal photon numbers per bin via the geometric
    quantile function; row k uses the mean of bin k.  The numbers are
    integer-valued doubles, and the herald and thinning tests read them
    as such; the largest (~1.5e17 at the sampling cap) is exact."""
    ratio = bin_means / (1.0 + bin_means)
    safe = np.where(ratio > 0.0, ratio, 0.5)
    log_ratio = np.where(ratio > 0.0, np.log(safe), -np.inf)
    return np.floor(np.log1p(-uniforms) / log_ratio[:, None])


def _herald_probability(photon_numbers: np.ndarray, config: ProtocolConfig) -> np.ndarray:
    """Chance the detector flags a herald given each bin's photon number.

    One Bernoulli draw against this value is distributed identically to
    sampling the detector's count and testing it, but costs a single
    uniform per bin.
    """
    eta = config.detector.efficiency
    n = photon_numbers
    if eta == 1.0:
        if config.detector.kind is DetectorKind.NUMBER_RESOLVED:
            return (photon_numbers == 1).astype(float)
        return (photon_numbers >= 1).astype(float)
    log_miss = math.log1p(-eta)
    if config.detector.kind is DetectorKind.NUMBER_RESOLVED:
        return eta * n * np.exp((n - 1.0) * log_miss)
    return -np.expm1(n * log_miss)


def _single_photon(
    held: np.ndarray, tau: np.ndarray | float, out_uniform: np.ndarray
) -> np.ndarray:
    """Whether binomial thinning of ``held`` photons through transmission
    ``tau`` leaves exactly one, by the inverse CDF at ``out_uniform``:
    ``P0 < u <= P0 + P1`` with ``P0 = (1 - tau)**n`` and
    ``P1 = n tau (1 - tau)**(n - 1)``.

    This is the event that the binomial quantile at ``u`` equals 1, up to
    ``u`` falling within rounding of a CDF boundary.  Where ``P0`` or
    ``P1`` underflows, its true value lies below the smallest nonzero
    uniform (2**-53), so the decision stands.  ``tau = 1`` takes the
    exact ``P0 = [n == 0]`` and ``P1 = [n == 1]``, since ``log1p(-1)``
    is ``-inf``.  Held counts of 0 never give a single photon.
    """
    n = held
    lossless = tau == 1.0
    log_loss = np.log1p(-np.where(lossless, 0.0, tau))
    p0 = np.where(lossless, n == 0.0, np.exp(n * log_loss))
    p1 = np.where(lossless, n == 1.0, n * tau * np.exp((n - 1.0) * log_loss))
    return (p0 < out_uniform) & (out_uniform <= p0 + p1)


def _check_seed(seed: int) -> None:
    if not (_is_int(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


def _check_sampleable(config: ProtocolConfig) -> None:
    if np.any(config.bin_means() > _MAX_SAMPLEABLE_NBAR):
        raise ValueError(
            f"mean photon numbers above {_MAX_SAMPLEABLE_NBAR:g} cannot be "
            "sampled in double precision"
        )
