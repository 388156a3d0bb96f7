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
per trial for every photon number the sampler can draw.  The quantile,
herald test and thinning read the laws of :mod:`loopsource.models`.

Reproducibility contract.  Trials run in pages of ``_PAGE_TRIALS``, and
bins (newest first) in blocks fixed by the configurations alone (see
``_Bank.blocks``).  At the start of a block the page's trials that no
source has heralded yet are ranked in trial order, and the trial of rank
``r`` reads words ``[r w, (r + 1) w)`` of each source's thermal range and
herald range of (page, block), ``w`` being the block width; word
``r w + k`` belongs to the block's bin ``k``.  The thinning draw of the
page's trial ``i`` is word ``i`` of the page's thinning range in source
0's stream.  Source ``s`` reads the Philox stream keyed by
``(seed, s)``, whose 256-bit counter ``(c, block, page, kind)`` names
one range per (kind, page, block), ``c`` counting its 4-word blocks.

Only the bins up to a trial's freshest herald in any source can change
its result, so no uniform is generated for a trial after its block of
that herald.  A trial's uniforms depend only on the trials before it in
its page: results are bit-identical for given (configs, seed) however
many trials follow, and ``simulate_trial`` replays a trial by running
its page up to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _closed_form_of
from .models import (
    OutcomeDistribution,
    ProtocolConfig,
    _binomial_law,
    _check_count,
    _herald_given_n,
    _is_int,
    _thermal_rate,
    transmission,
)

# Both sizes are part of the address contract above.  A page's arrays
# are O(page) and its block arrays O(page x block width).  Sources run
# one after another through the same arrays, so block widths are capped
# so that one source's thermal and herald uniforms of a page's block
# stay within the budget (8 MB) whatever the number of sources; this
# also bounds the herald stage's temporaries.
_PAGE_TRIALS = 1 << 14
_BATCH_BUDGET_DRAWS = 1 << 20

# Largest mean photon number sampled: below it the median photon number
# (nbar ln 2) stays under 2**53, where a double holds every integer.  The
# thermal rate itself is exact at any finite nbar.
_MAX_SAMPLEABLE_NBAR = 4.0e15

# Most trials a run counts: the histogram's counts are int64.
_MAX_TRIALS = 2**63 - 1

# Fourth word of the Philox counter: which kind of uniform a range holds.
_THERMAL, _HERALD, _THINNING = 0, 1, 2


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

    def __post_init__(self) -> None:
        if self.herald_loop_index is None and self.single_photon:
            raise ValueError("unheralded trial must hold no photon")

    @property
    def heralded(self) -> bool:
        return self.herald_loop_index is not None


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
    """Uniforms a trial can read from one source: one thermal and one
    herald draw per bin plus one output-thinning draw."""
    return 2 * time_bins + 1


def simulate_trial(
    configs: list[ProtocolConfig], seed: int, trial_index: int
) -> TrialOutcome:
    """Replay trial ``trial_index`` of a seeded run of the bank
    ``configs``: its page runs up to it through the batch engine's page
    function, so the outcome is the one the batch run produced, at the
    cost of at most one page."""
    _check_uint64(trial_index, "trial index")
    bank = _Bank(configs, seed)
    page, row = divmod(trial_index, _PAGE_TRIALS)
    loop_index, single = bank.page(page, row + 1)
    loop = int(loop_index[-1])
    if loop == bank.time_bins:
        return TrialOutcome(herald_loop_index=None, single_photon=False)
    return TrialOutcome(herald_loop_index=loop, single_photon=bool(single[-1]))


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
    _check_count(trials, "trials")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be at most {_MAX_TRIALS}, got {trials}")
    bank = _Bank(configs, seed)
    loop_counts = np.zeros(bank.time_bins + 1, dtype=np.int64)
    single_photon_trials = 0
    for page, first in enumerate(range(0, trials, _PAGE_TRIALS)):
        loop_index, single = bank.page(page, min(_PAGE_TRIALS, trials - first))
        loop_counts += np.bincount(loop_index, minlength=bank.time_bins + 1)
        single_photon_trials += int(np.count_nonzero(single))
    return _summarize(trials, seed, loop_counts, single_photon_trials)


def _summarize(
    trials: int, seed: int, loop_counts: np.ndarray, single_photon_trials: int
) -> SimulationSummary:
    heralded = trials - int(loop_counts[-1])
    herald_rate = _proportion(heralded, trials)
    unconditional = _proportion(single_photon_trials, trials)
    conditional = _proportion(single_photon_trials, heralded) if heralded > 0 else None
    return SimulationSummary(
        trials=trials,
        herald_rate=herald_rate,
        conditional_fidelity=conditional,
        unconditional_fidelity=unconditional,
        loop_histogram=OutcomeDistribution(loop_counts / trials),
        loop_counts=tuple(loop_counts.tolist()),
        seed=seed,
    )


def _proportion(successes: int, denominator: int) -> Estimate:
    p = successes / denominator
    return Estimate(value=p, standard_error=math.sqrt(p * (1.0 - p) / denominator))


class _Bank:
    """The sources of one seeded run: their streams, loss chains and
    block plan, and the page function that simulates their trials."""

    def __init__(self, configs: list[ProtocolConfig], seed: int) -> None:
        if len(configs) == 0:
            raise ValueError("need at least one source configuration")
        self.time_bins = configs[0].time_bins
        _check_uint64(seed, "seed")
        for config in configs:
            if config.time_bins != self.time_bins:
                raise ValueError("all parallel sources must share the same number of time-bins")
            if np.any(config.bin_means() > _MAX_SAMPLEABLE_NBAR):
                raise ValueError(
                    f"mean photon numbers above {_MAX_SAMPLEABLE_NBAR:g} cannot be "
                    "sampled in double precision"
                )
        self.configs = list(configs)
        self.rates = [_thermal_rate(config.bin_means()) for config in configs]
        self.streams = [_Stream(seed, s) for s in range(len(configs))]
        loops = np.arange(self.time_bins)
        self.taus = np.stack([transmission(config.loss, loops) for config in configs])
        # The expected share of trials no source has heralded by each bin,
        # negated so that it ascends.
        share = np.prod([_closed_form_of(config).survival for config in configs], axis=0)
        self._falling_share = -share
        self._max_width = max(1, _BATCH_BUDGET_DRAWS // (2 * _PAGE_TRIALS))

    def blocks(self):
        """``(start, stop)`` of each block of bins, newest first.  A block
        ends at the first bin by which the bank's expected unheralded
        share has halved since the block began, or after ``_max_width``
        bins, so a page's block arrays fit ``_BATCH_BUDGET_DRAWS``."""
        start, level = 0, 1.0
        while start < self.time_bins:
            halved = int(np.searchsorted(self._falling_share, -0.5 * level))
            stop = min(max(halved, start) + 1, start + self._max_width, self.time_bins)
            yield start, stop
            level = -self._falling_share[stop - 1]
            start = stop

    def page(self, page: int, rows: int):
        """Loop index of the freshest herald of each of the page's first
        ``rows`` trials (the number of bins when no source heralded), and
        whether it output a single photon."""
        t = self.time_bins
        loop_index = np.full(rows, t)
        held, tau = np.zeros(rows), np.zeros(rows)
        live = np.arange(rows)
        buffer = np.empty(2 * rows * self._max_width)
        for block, (start, stop) in enumerate(self.blocks()):
            if not live.size:
                break
            width, size = stop - start, live.size * (stop - start)
            thermal, herald = buffer[:size], buffer[size : 2 * size]
            for s, config in enumerate(self.configs):
                self.streams[s].read(_THERMAL, page, block, thermal)
                self.streams[s].read(_HERALD, page, block, herald)
                # Rank-major words: one row per live trial, one column per bin.
                rates = self.rates[s][start:stop]
                photons = _thermal_inverse_cdf(thermal.reshape(-1, width), rates).ravel()
                # A uniform below the herald probability given the bin's
                # photon number stands in for sampling the detector's count.
                hits = np.flatnonzero(herald < _herald_given_n(config.detector, photons))
                ranks, bins = np.divmod(hits, width)
                trials, loops = live[ranks], start + bins
                # The freshest herald is a trial's first hit, and a tie
                # keeps the lower source.
                fresher = loops < loop_index[trials]
                fresher[1:] &= ranks[1:] != ranks[:-1]
                trials, loops, hits = trials[fresher], loops[fresher], hits[fresher]
                loop_index[trials] = loops
                held[trials] = photons[hits]
                tau[trials] = self.taus[s, loops]
            live = live[loop_index[live] == t]
        out_uniform = np.empty(rows)
        self.streams[0].read(_THINNING, page, 0, out_uniform)
        # Unheralded trials hold no photons, so the test reads False for
        # them whatever transmission they are paired with.
        return loop_index, _single_photon(held, tau, out_uniform)


class _Stream:
    """The Philox stream of one (seed, source index) key, read by address:
    ``read`` fills an array with the first words of one counter range."""

    def __init__(self, seed: int, source_index: int) -> None:
        self._key = (seed, source_index)
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array(self._key, dtype=np.uint64))
        )

    def read(self, kind: int, page: int, block: int, out: np.ndarray) -> None:
        """Fill ``out`` with the uniforms at words ``0, 1, ...`` of the
        range of ``kind`` for (``page``, ``block``)."""
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, block, page, kind), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._gen.random(out=out)


def _thermal_inverse_cdf(uniforms: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Map uniforms to thermal photon numbers per bin via the geometric
    quantile ``floor(log1p(-u) / -rate)``; column k uses the rate of bin k
    (:func:`loopsource.models._thermal_rate`).  The numbers are
    integer-valued doubles, and the herald and thinning tests read them
    as such; the largest (~1.5e17 at the sampling cap) is exact."""
    return np.floor(np.log1p(-uniforms) / -rates)


def _single_photon(
    held: np.ndarray, tau: np.ndarray | float, out_uniform: np.ndarray
) -> np.ndarray:
    """Whether binomial thinning of ``held`` photons through transmission
    ``tau`` leaves exactly one, by the inverse CDF at ``out_uniform``:
    ``P0 < u <= P0 + P1`` with P(none) and P(one) of Binomial(n, tau), the
    event that the binomial quantile at ``u`` is 1 up to ``u`` falling
    within rounding of a CDF boundary.  Where ``P0`` or ``P1`` underflows,
    its true value lies below the smallest nonzero uniform (2**-53), so the
    decision stands.  Held counts of 0 never give a single photon."""
    p0, p1 = _binomial_law(held, tau, "none", "one")
    return (p0 < out_uniform) & (out_uniform <= p0 + p1)


def _check_uint64(value: int, name: str) -> None:
    if not (_is_int(value) and 0 <= value < 2**64):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
