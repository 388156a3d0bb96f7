"""Event-level Monte Carlo simulation of the loop-source protocol.

Each trial pumps the source once per time-bin, keeps the most recent
heralded bin (the switch dumps anything held earlier), and thins the
kept photons through the accumulated losses at extraction: with ``P0``
and ``P1`` the chances that none or exactly one survives, a uniform
``u <= P0`` is vacuum and ``P0 < u <= P0 + P1`` a single photon, the
only event counted.  A vacuum bin can neither herald nor be kept, so a
trial jumps from one non-vacuum bin to the next by a geometric gap
(Devroye 1986), draws ``n >= 1`` there and tests the herald.  All laws
come from :mod:`loopsource.models`.

Reproducibility contract.  Trials run in pages of ``_PAGE_TRIALS``, and
sources in order, each in rounds; a source that cannot herald (eta_d 0
or every bin mean 0) is skipped; sources given one configuration object
share its laws, not a stream.  Source ``s`` searches a trial's bins
below its bound, the freshest herald of sources ``0..s-1`` (else the
number of bins), so a tie keeps the lower source.  In round ``r``:

* The page's trials still searching (in round 0, those with a bound
  above 0, from bin 0), ranked in trial order, read word ``k`` of the gap
  range at rank ``k``.  A trial lands on the first bin ``b`` at or after
  its start by which the chance that all are vacuum falls below
  ``1 - u``: ``start + floor(log1p(-u) / log P0)`` for a constant pump, a
  search in the prefix of ``log P0 = -log1p(nbar)`` for a per-bin one.
* A trial whose ``b`` is not below its bound stops.  The others, ranked
  again, read word ``k`` of the thermal and herald ranges:
  ``n = 1 + floor(log1p(-u) / -rate)`` (the law is memoryless), and a
  herald where the herald uniform lies below its probability given ``n``.
* A trial that heralds, or whose ``b + 1`` reaches its bound, stops; the
  others start round ``r + 1`` at ``b + 1``.

The thinning draw of the page's trial ``i`` is word ``i`` of the page's
thinning range of source 0.  Source ``s`` reads the Philox stream keyed
``(seed, s)`` (Salmon et al. 2011), whose counter ``(c, round, page,
kind)`` names one range per (kind, page, round), ``c`` counting 4-word
blocks; kinds are gap 0, thermal 1, herald 2 and thinning 3.

So no uniform is drawn for a vacuum bin or a bin older than the freshest
herald, and a trial's uniforms depend only on the trials before it in
its page: results are bit-identical for given (configs, seed) however
many trials follow, and ``simulate_trial`` replays a trial by running
its page up to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    OutcomeDistribution,
    PerBinPump,
    ProtocolConfig,
    _binomial_law,
    _check_count,
    _herald_given_n,
    _is_int,
    _thermal_rate,
    _thermal_vacuum_log,
    transmission,
)

# Part of the address contract above.  A page's arrays and reads hold at
# most one entry per trial; a source's, one per bin.
_PAGE_TRIALS = 1 << 14

# Largest mean photon number sampled: below it the median photon number
# (nbar ln 2) stays under 2**53, where a double holds every integer.  The
# thermal rate itself is exact at any finite nbar.
_MAX_SAMPLEABLE_NBAR = 4.0e15

# Most trials a run counts: the histogram's counts are int64.
_MAX_TRIALS = 2**63 - 1

# Fourth word of the Philox counter: which kind of uniform a range holds.
_GAP, _THERMAL, _HERALD, _THINNING = 0, 1, 2, 3


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
    """The dense count ``2t + 1``: one thermal and one herald draw per bin
    plus one thinning draw, the count that ``bench/tracing.py`` multiplies
    into its ``montecarlo.draws``.  It is not what a trial reads: the
    engine draws no uniform for a vacuum bin or a bin older than the
    freshest herald, and one gap uniform per non-vacuum bin it visits."""
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
    """The sources of one seeded run, the Philox generator that reads their
    streams by address, and the page function that simulates their trials."""

    def __init__(self, configs: list[ProtocolConfig], seed: int) -> None:
        if len(configs) == 0:
            raise ValueError("need at least one source configuration")
        self.time_bins = configs[0].time_bins
        _check_uint64(seed, "seed")
        self._seed = seed
        self._gen = np.random.Generator(np.random.Philox())
        # One source per configuration object, however many indices pass it.
        laws, self.sources = {}, []
        for s, config in enumerate(configs):
            if config.time_bins != self.time_bins:
                raise ValueError("all parallel sources must share the same number of time-bins")
            source = laws.get(id(config)) or laws.setdefault(id(config), _Source(config))
            if source.can_herald:
                self.sources.append((s, source))

    def read(self, source: int, kind: int, page: int, rnd: int, size: int) -> np.ndarray:
        """The uniforms at words ``0, ..., size - 1`` of the range of ``kind``
        for (``page``, round ``rnd``) of source ``source``'s stream.  It sets
        the whole state, key included, so one generator serves every stream."""
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, rnd, page, kind), "key": (self._seed, source)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen.random(size)

    def page(self, page: int, rows: int):
        """Loop index of the freshest herald of each of the page's first
        ``rows`` trials (the number of bins when no source heralded), and
        whether it output a single photon."""
        loop_index = np.full(rows, self.time_bins)
        held, tau = np.zeros(rows), np.zeros(rows)
        for index, source in self.sources:
            # A source searches only bins fresher than the best herald of
            # the sources before it, so a tie keeps the lower source and a
            # herald at bin 0 cannot be beaten.
            live = loop_index.nonzero()[0]
            bound = loop_index.take(live)
            start, rnd = np.zeros(live.size, dtype=np.intp), 0
            # Each round moves every trial's start on, so at most t rounds.
            while live.size:
                bins = source.next_bin(start, self.read(index, _GAP, page, rnd, live.size))
                # Index arrays, not masks: a mask gather costs ~5x as much.
                keep = (bins < bound).nonzero()[0]
                live, bound, bins = live.take(keep), bound.take(keep), bins.take(keep)
                photons = source.photons(bins, self.read(index, _THERMAL, page, rnd, live.size))
                # A uniform below the herald probability given the bin's
                # photon number stands in for sampling the detector's count.
                herald = self.read(index, _HERALD, page, rnd, live.size)
                hit = herald < _herald_given_n(source.detector, photons)
                won = hit.nonzero()[0]
                trials, loops = live.take(won), bins.take(won).astype(np.intp)
                loop_index[trials] = loops
                held[trials] = photons.take(won)
                tau[trials] = source.taus.take(loops)
                start = bins + 1
                keep = (~hit & (start < bound)).nonzero()[0]
                live, bound, start = live.take(keep), bound.take(keep), start.take(keep)
                rnd += 1
        out_uniform = self.read(0, _THINNING, page, 0, rows)
        # Unheralded trials hold no photons, so the test reads False for
        # them whatever transmission they are paired with.
        return loop_index, _single_photon(held, tau, out_uniform)


class _Source:
    """One configuration's laws as the rounds read them: whether it can
    herald, where a trial's next non-vacuum bin lies, how many photons it
    holds there, and the loss chain ``taus`` of its bins."""

    def __init__(self, config: ProtocolConfig) -> None:
        means = config.bin_means()
        if np.any(means > _MAX_SAMPLEABLE_NBAR):
            raise ValueError(f"mean photon numbers above {_MAX_SAMPLEABLE_NBAR:g} cannot be "
                             "sampled in double precision")
        self.detector = config.detector
        # A source that cannot herald reads no words: its gaps would divide
        # by a zero vacuum log, or visit every bin that holds a photon.
        self.can_herald = self.detector.efficiency > 0.0 and np.any(means > 0.0)
        self.taus = transmission(config.loss, np.arange(config.time_bins))
        self.per_bin = isinstance(config.pump, PerBinPump)
        if not self.per_bin:
            means = means[0]
        self.rate = _thermal_rate(means)
        vacuum_log = _thermal_vacuum_log(means)
        if self.per_bin:
            # The prefix of -log P(n = 0): bins [a, b) are all vacuum with
            # chance exp(vacuum[a] - vacuum[b]).
            self.vacuum = np.concatenate([[0.0], np.cumsum(-vacuum_log)])
        else:
            # Capped (nbar below 1e-300) so that the gap cannot overflow:
            # there every gap but that of u = 0 exceeds 1e284 bins either way.
            self.vacuum_log = min(vacuum_log, -1e-300)

    def next_bin(self, start: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """First bin at or after ``start`` by which the chance that every
        bin from ``start`` is vacuum falls below ``1 - u``, for gap uniforms
        ``u``: the next non-vacuum bin (at least the number of bins when
        there is none)."""
        log_u = np.log1p(-uniforms)
        if self.per_bin:
            return np.searchsorted(self.vacuum, self.vacuum[start] - log_u, side="right") - 1
        return start + np.floor(log_u / self.vacuum_log)

    def photons(self, bins: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Photon numbers of non-vacuum bins: the thermal law is memoryless,
        so ``n - 1`` given ``n >= 1`` follows the quantile itself."""
        rate = self.rate[bins] if self.per_bin else self.rate
        return 1.0 + _thermal_inverse_cdf(uniforms, rate)


def _thermal_inverse_cdf(uniforms: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Map uniforms to thermal photon numbers via the geometric quantile
    ``floor(log1p(-u) / -rate)``, the rates broadcast against the uniforms
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
