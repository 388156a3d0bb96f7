"""Event-level Monte Carlo simulation of the loop-source protocol.

Each trial pumps the source once per time-bin, keeps the most recent
heralded bin (the switch dumps anything held earlier), and thins the
kept photons through the accumulated losses at extraction: with ``P0``
and ``P1`` the chances that none or exactly one survives, a uniform
``u <= P0`` is vacuum and ``P0 < u <= P0 + P1`` a single photon, the
only event counted.  A source's bins herald independently, bin ``l`` with
probability ``S_l``, so its freshest herald is the first success of a
Bernoulli sequence, found by one geometric gap (Devroye 1986, ch. X).
Given the herald, the bin holds ``n = 1 + G(r) + G(x)`` photons, two
geometrics.  Both laws come from :mod:`loopsource.models`
(:func:`~loopsource.models._herald_logs`): the engine reads S and the
heralded law, and does not test the detector photon number by photon
number.

Reproducibility contract.  Trials run in pages of ``_PAGE_TRIALS``, and
sources in order; a source that cannot herald (eta_d 0 or every bin mean
0) is skipped; sources given one configuration object share its laws, not
a stream.  Source ``s`` searches a trial's bins below its bound, the
freshest herald of sources ``0..s-1`` (else the number of bins), so a tie
keeps the lower source:

* The page's trials with a bound above 0, ranked in trial order, read word
  ``k`` of the gap range at rank ``k``.  A trial lands on the first bin
  ``b`` by which the chance that every bin from 0 misses falls below
  ``1 - u``: ``floor(log1p(-u) / log(1 - S))`` for a constant pump, a
  search in the prefix of ``-log(1 - S_l)`` for a per-bin one.
* A trial whose ``b`` is below its bound heralds there.  Those trials,
  ranked again, read word ``k`` of the thermal and herald ranges: ``G(r)``
  and ``G(x)`` are ``floor(log1p(-u) / log r)`` at the thermal and the
  herald uniform.

The thinning draw of the page's trial ``i`` is word ``i`` of the page's
thinning range of source 0.  Source ``s`` reads the Philox stream keyed
``(seed, s)`` (Salmon et al. 2011), whose counter ``(c, 0, page, kind)``
names one range per (kind, page), ``c`` counting 4-word blocks; kinds are
gap 0, thermal 1, herald 2 and thinning 3.

So a source reads at most three words per trial, and a trial's uniforms
depend only on the trials before it in its page: results are
bit-identical for given (configs, seed) however many trials follow, and
``simulate_trial`` replays a trial by running its page up to it.

A bank reuses one page workspace, allocated when it is built: each page
fills its rows in place, and ``_Bank.page`` returns its loop indices as a
view of it, valid until the next page.  Only the index arrays of the
trials a source searches and of those it heralds are allocated page by
page.
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
    _herald_logs,
    _is_int,
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

# Rows of a bank's page workspace, each of ``_PAGE_TRIALS`` doubles.  A
# read fills the row of its kind, rows 0-2; the thinning, read after the
# sources, takes the gap row.  Then come the page's held photon numbers
# and their transmissions, and two rows for the binomial law.
_READ_ROW = (_GAP, _THERMAL, _HERALD, _GAP)
_HELD, _TAU, _LAW = 3, 4, 5
_WORK_ROWS = 7


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
    into its ``montecarlo.draws``.  It is not what a trial reads: a source
    reads at most three words per trial (see the module docstring)."""
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
    streams by address, the page workspace, and the page function that
    simulates their trials."""

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
        # Filled in place page after page, so that a page allocates no array
        # of its size but the index arrays of the trials each source
        # searches and heralds.
        self._loop_index = np.empty(_PAGE_TRIALS, dtype=np.intp)
        self._work = np.empty((_WORK_ROWS, _PAGE_TRIALS))

    def read(self, source: int, kind: int, page: int, size: int) -> np.ndarray:
        """The uniforms at words ``0, ..., size - 1`` of the range of ``kind``
        for ``page`` of source ``source``'s stream, in the workspace row of
        ``kind``: valid until the next read of that kind.  It sets the whole
        state, key included, so one generator serves every stream."""
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, page, kind), "key": (self._seed, source)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen.random(out=self._work[_READ_ROW[kind], :size])

    def page(self, page: int, rows: int):
        """Loop index of the freshest herald of each of the page's first
        ``rows`` trials (the number of bins when no source heralded), and
        whether it output a single photon.  The loop indices are a view of
        the bank's workspace, valid until its next page."""
        work = self._work[:, :rows]
        loop_index, held, tau = self._loop_index[:rows], work[_HELD], work[_TAU]
        loop_index.fill(self.time_bins)
        held.fill(0.0)
        tau.fill(0.0)
        for index, source in self.sources:
            # A source searches only bins fresher than the freshest herald of
            # the sources before it, so a tie keeps the lower source and a
            # herald at bin 0 cannot be beaten.
            live = loop_index.nonzero()[0]
            bins = source.herald_bins(self.read(index, _GAP, page, live.size))
            # Index arrays, not masks: a mask gather costs ~5x as much.
            won = (bins < loop_index.take(live)).nonzero()[0]
            trials, loops = live.take(won), bins.take(won).astype(np.intp)
            thermal = self.read(index, _THERMAL, page, won.size)
            herald = self.read(index, _HERALD, page, won.size)
            loop_index[trials] = loops
            held[trials] = source.heralded_photons(loops, thermal, herald)
            tau[trials] = source.taus.take(loops)
        out_uniform = self.read(0, _THINNING, page, rows)
        # The sources are done, so the thinning's P0 and P1 take the thermal
        # and herald rows.
        law = (work[_THERMAL], work[_HERALD], *work[_LAW:])
        # Unheralded trials hold no photons, so the test reads False for
        # them whatever transmission they are paired with.
        return loop_index, _single_photon(held, tau, out_uniform, law)


class _Source:
    """One configuration's laws as a page reads them: whether it can
    herald, where a trial's freshest herald lies, how many photons that
    bin holds, and the loss chain ``taus`` of its bins."""

    def __init__(self, config: ProtocolConfig) -> None:
        means = config.bin_means()
        if np.any(means > _MAX_SAMPLEABLE_NBAR):
            raise ValueError(f"mean photon numbers above {_MAX_SAMPLEABLE_NBAR:g} cannot be "
                             "sampled in double precision")
        detector = config.detector
        # A source that cannot herald reads no words: its gaps would divide
        # by a zero log(1 - S).
        self.can_herald = detector.efficiency > 0.0 and np.any(means > 0.0)
        self.taus = transmission(config.loss, np.arange(config.time_bins))
        self.per_bin = isinstance(config.pump, PerBinPump)
        if not self.per_bin:
            means = means[0]
        log_miss, self.log_r, self.log_x = _herald_logs(means, detector.efficiency,
                                                        detector.kind)
        if self.per_bin:
            # The prefix of -log(1 - S): bins [a, b) all miss with chance
            # exp(miss[a] - miss[b]).
            self.miss = np.concatenate([[0.0], np.cumsum(-log_miss)])
        else:
            # Capped (S below 1e-300) so that the gap cannot overflow: there
            # every gap but that of u = 0 exceeds 1e284 bins either way.
            self.log_miss = min(log_miss, -1e-300)

    def herald_bins(self, uniforms: np.ndarray) -> np.ndarray:
        """The first bin ``b`` by which the chance that bins ``0..b`` all miss
        falls below ``1 - u``, for gap uniforms ``u``: the freshest herald
        (at least the number of bins where none heralds).  The uniforms are
        overwritten; a constant pump's bins are computed in them."""
        if self.per_bin:
            log_u = np.log1p(np.negative(uniforms, out=uniforms), out=uniforms)
            target = np.negative(log_u, out=log_u)
            return np.searchsorted(self.miss, target, side="right") - 1
        return _geometric_quantile(uniforms, self.log_miss, uniforms)

    def heralded_photons(self, bins: np.ndarray, thermal: np.ndarray,
                         herald: np.ndarray) -> np.ndarray:
        """Photon numbers ``1 + G(r) + G(x)`` of heralded bins, from a
        thermal and a herald uniform each.  Both are overwritten; the
        numbers are computed in ``thermal``."""
        log_r, log_x = self.log_r, self.log_x
        if self.per_bin:
            log_r, log_x = log_r.take(bins), log_x.take(bins)
        photons = _geometric_quantile(thermal, log_r, thermal)
        photons += _geometric_quantile(herald, log_x, herald)
        return np.add(photons, 1.0, out=photons)


def _geometric_quantile(uniforms: np.ndarray, log_ratios, out=None) -> np.ndarray:
    """``floor(log1p(-u) / log r)``, the quantile at uniforms u of the geometric
    law ``(1 - r) r**k``, the logs broadcast against u, in ``out`` when given:
    a constant pump's gap (r = 1 - S) and the two geometrics of a heralded
    photon number.  The numbers are integer-valued doubles, read as such by
    the thinning; the largest photon number (~1.5e17 at the cap) is exact."""
    log_u = np.log1p(np.negative(uniforms, out=out), out=out)
    return np.floor(np.divide(log_u, log_ratios, out=log_u), out=log_u)


def _single_photon(
    held: np.ndarray, tau: np.ndarray | float, out_uniform: np.ndarray, out=None
) -> np.ndarray:
    """Whether binomial thinning of ``held`` photons through transmission
    ``tau`` leaves exactly one, by the inverse CDF at ``out_uniform``:
    ``P0 < u <= P0 + P1`` with P(none) and P(one) of Binomial(n, tau), the
    event that the binomial quantile at ``u`` is 1 up to ``u`` falling
    within rounding of a CDF boundary.  Where ``P0`` or ``P1`` underflows,
    its true value lies below the smallest nonzero uniform (2**-53), so the
    decision stands.  Held counts of 0 never give a single photon.  ``out``
    passes to :func:`loopsource.models._binomial_law`."""
    p0, p1 = _binomial_law(held, tau, "none", "one", out=out)
    return (p0 < out_uniform) & (out_uniform <= np.add(p0, p1, out=p1))


def _check_uint64(value: int, name: str) -> None:
    if not (_is_int(value) and 0 <= value < 2**64):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
