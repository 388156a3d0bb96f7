"""Closed-form heralding probabilities and fidelities for the loop source.

Every quantity here has two implementations: a closed form (primary) and
a truncated photon-number series (functions with an ``_oracle`` suffix).
The series evaluate the defining sums directly from the elementary laws
in :mod:`loopsource.models` (``thermal_pmf``, ``detect_prob`` and the
binomial loss thinning, each over an array of photon numbers), so the two
routes are independent and the test suite can hold them against each other.

Heralding on the detector arm projects the stored signal arm onto a
photon-number mixture.  A herald that fired l loops before the output
leaves the photon to survive transmission tau_l, so the chance that
exactly one photon emerges (the single-photon fidelity) depends on the
heralded photon-number distribution and on the loss chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import (
    DetectorKind,
    DetectorModel,
    LossModel,
    OutcomeDistribution,
    ProtocolConfig,
    SourceModel,
    UndefinedConditionalError,
    _bin_herald,
    _binomial_law,
    _capped_herald,
    _check_count,
    _check_kind,
    _check_probability,
    _counts,
    _herald_given_n,
    _shaped_as,
    _thermal_rate,
    detect_prob,
    herald_outcome,
    thermal_pmf,
    thermal_truncation,
    transmission,
)


@dataclass(frozen=True)
class FidelityReport:
    """Herald-conditioned fidelity, unconditional fidelity, the herald
    probability, and the per-loop fidelities they are built from (index
    = loops before output).  Bins that can never herald carry zero
    weight; their per-loop entry is reported as 0."""

    conditional: float
    unconditional: float
    herald_probability: float
    per_loop: tuple[float, ...]


_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal
# Photon numbers per slice of a series oracle's sum.
_SERIES_CHUNK = 1 << 16
# Longest series an oracle sums: its length at nbar 1e8, the top of the
# documented domain, where one oracle call already takes a minute or more.
# The length grows like 27.6 nbar (1.1e17 at the sampling cap 4e15), so a
# longer series would run for hours.  A literal, held to
# thermal_truncation by a test: computing it at import raised every start's
# peak RSS by ~0.35 MB.
_SERIES_LIMIT_NBAR = 1e8
_SERIES_LIMIT = 2_763_102_125
# Most cells (batch x bin) of one kernel call, ~137 bytes each at its peak:
# fig10 --t 100000, ten nbars a call, peaks at ~0.18 GB, not ~14 GB.
_KERNEL_CELLS = 1 << 20


def _kernel_slices(count: int, cells: int) -> list[slice]:
    """Slices of ``range(count)`` for kernel calls over entries of ``cells``
    cells each: as few as hold at most ``_KERNEL_CELLS`` cells a call, or
    one entry a call where one entry alone exceeds them."""
    step = max(1, _KERNEL_CELLS // cells)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


class ClosedForm(NamedTuple):
    """Outputs of :func:`closed_form`: per-bin arrays ``[..., t]`` over the
    batch shape ``[...]``, the last axis running over loops before output.
    The train quantities ``[...]`` are derived on access, or per length by :meth:`by_length`."""

    single_shot: np.ndarray  # [..., t] herald probability of each bin alone
    weights: np.ndarray  # [..., t] P(freshest herald is l loops old)
    survival: np.ndarray  # [..., t] P(none of bins 0..l heralds)
    per_loop: np.ndarray  # [..., t] fidelity given that herald; 0 if S_l = 0

    def by_length(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(herald, unconditional, conditional)`` of the head (the ``t`` freshest
        bins) of each length in ``ts``, each ``[len(ts), ...]``, bit for bit those
        of the closed form of that shorter train: bin l depends only on bins
        0..l, and a row sum over a slice takes the same pairwise order as over
        a fresh array.  Two row sums per head, of the weights and of their
        products with ``per_loop``."""
        products = self.weights * self.per_loop
        sums = np.array([self.weights[..., :t].sum(axis=-1) for t in ts])
        unconditional = np.array([products[..., :t].sum(axis=-1) for t in ts])
        return _capped_herald(sums), unconditional, _conditional(unconditional, sums)

    @property
    def no_herald(self) -> np.ndarray:
        """[...] P(no bin heralds)."""
        return self.survival[..., -1]

    @property
    def herald(self) -> np.ndarray:
        """[...] herald probability (see :func:`loopsource.models._capped_herald`)."""
        return _capped_herald(self.weights.sum(axis=-1))

    @property
    def unconditional(self) -> np.ndarray:
        """[...] sum of the weights times the per-loop fidelities."""
        return (self.weights * self.per_loop).sum(axis=-1)

    @property
    def conditional(self) -> np.ndarray:
        """[...] fidelity given a herald (see :func:`_conditional`)."""
        return _conditional(self.unconditional, self.weights.sum(axis=-1))


def _conditional(unconditional, weight_sum):
    """Unconditional over the uncapped weight sum, so at most 1: each term
    ``w F`` (F <= 1) rounds to at most ``w`` and both sums take the same
    pairwise order.  The floor, the smallest subnormal, only replaces a zero
    sum, where nothing can herald and this reads 0."""
    return unconditional / np.maximum(weight_sum, _SMALLEST_SUBNORMAL)


def closed_form(nbars, eta_d, taus, kind: DetectorKind) -> ClosedForm:
    """Every closed form of the protocol, broadcast over a batch.

    ``nbars[..., t]`` holds each bin's mean photon number in reverse
    chronological order (entry 0 is the final bin); ``eta_d`` and the
    loss chain ``taus`` (transmission after l loops, see
    :func:`loopsource.models.transmission`) broadcast against it.  The
    switch keeps the freshest herald, so bin l wins with weight
    ``S_l * prod_{k<l}(1 - S_k)``.  ``nbars`` must carry the train axis:
    a pump of another length would broadcast to a mismatched result.
    """
    shape = np.broadcast_shapes(np.shape(nbars), np.shape(eta_d), np.shape(taus))
    if not shape:
        raise ValueError("nbars must end in the train axis, but no input has one")
    if np.shape(nbars)[-1:] != shape[-1:]:
        raise ValueError(f"nbars must end in the train axis of length {shape[-1]}, "
                         f"got shape {np.shape(nbars)}")
    _check_kind(kind)
    return _closed_form_rows(nbars, eta_d, _bin_rows(eta_d, taus, kind))


def _closed_form_rows(nbars, eta_d, rows) -> ClosedForm:
    """:func:`closed_form` given the bins' rows (see :func:`_bin_rows`)."""
    return _train(*_bin_law(nbars, eta_d, rows))


def _train(singles, misses, fidelity) -> ClosedForm:
    """The train whose bins herald with ``singles`` S, miss with ``misses``
    1 - S and deliver ``fidelity``, over the last axis: freshest-herald weights
    ``S_l prod_{k<l}(1 - S_k)`` and survival ``prod_{k<=l}(1 - S_k)``, products
    so that neither tiny S nor tiny 1 - S cancels.  A bin that can never
    herald gets weight 0 and per-loop fidelity 0, not a conditional value."""
    survival = np.cumprod(misses, axis=-1)
    weights = np.array(singles, dtype=float)
    weights[..., 1:] *= survival[..., :-1]
    return ClosedForm(singles, weights, survival, np.where(singles > 0.0, fidelity, 0.0))


def _parallel_train(singles, per_loop, m: int) -> ClosedForm:
    """The train of a bank of m identical sources whose bins herald with
    ``singles`` and deliver ``per_loop``.  The bank keeps the freshest herald
    of any source, so a bin of the bank heralds unless every source misses
    it: one source with ``S_m = 1 - (1 - S)**m``, P(some) of Binomial(m, S)."""
    return _train(*_binomial_law(m, singles, "some", "none"), per_loop)


def _train_rows(config: ProtocolConfig):
    """The rows (see :func:`_bin_rows`) of each bin of ``config``'s train:
    its detector over its loss chain."""
    taus = transmission(config.loss, np.arange(config.time_bins))
    return _bin_rows(config.detector.efficiency, taus, config.detector.kind)


def _bin_rows(eta_d, taus, kind: DetectorKind):
    """The per-bin law at pump level n, with ``x = eta_d n`` and transmission
    tau (``taus``): herald probability ``S = x/(1 + x)**(j-1)``, single-photon
    fidelity ``F = Q (1 + x)**(j-1) / R**j`` and ``S F = x Q / R**j``.
    Returns ``(Q, R, j)``, Q and R as tuples of coefficients in n of one
    degree, highest power first, broadcasting against eta_d and taus.  With
    ``b = eta_d + (1 - eta_d) tau``, which never cancels, and ``a = 1 - b``,
    exact to an ulp of 1 as ``1 + a`` and ``a tau`` need: bucket ``j = 2``,
    ``Q = tau (b + a tau, 2, 1)``, ``R = (1 + tau n)(1 + b n)``; resolved
    ``j = 3``, ``Q = tau (1 + a, 1)``, ``R = (b, 1)``."""
    b = eta_d + (1.0 - eta_d) * taus
    a = 1.0 - b
    if kind is DetectorKind.BUCKET:
        return (taus * (b + a * taus), 2.0 * taus, taus), (taus * b, taus + b, 1.0), 2
    return (taus * (1.0 + a), taus), (b, 1.0), 3


def _bin_law(nbars, eta_d, rows):
    """``(S, 1 - S, F)`` of each bin from its ``rows`` (see :func:`_bin_rows`):
    S and 1 - S from the herald law (:func:`loopsource.models._bin_herald`),
    and F in its ratio ``q``, ``p``, ``X``.  A row of degree d reads
    ``sum_i c_i p**(d-i) q**i``, each term at most its coefficient, and
    ``F = (Q/R) (X q**(d-1) / R)**(j-1)``, whose ratios are at most 1, 2 and 1
    term by term (``tau, eta_d <= b``): finite for every finite n, and exactly
    1 where the forms are equal (the lossless resolved plateau).  R underflows
    only where tau = eta_d = 0 and Q = 0; the floor keeps F at 0."""
    numerator, denominator, j = rows
    kind = DetectorKind.NUMBER_RESOLVED if j == 3 else DetectorKind.BUCKET
    single, miss, q, p, x_form = _bin_herald(nbars, eta_d, kind)
    q_powers = [1.0, q]  # q**i up to the rows' degree
    while len(q_powers) < len(denominator):
        q_powers.append(q_powers[-1] * q)
    scale = np.maximum(_homogeneous(denominator, p, q_powers), _SMALLEST_SUBNORMAL)
    photon = x_form / scale * q_powers[-2]
    fidelity = _homogeneous(numerator, p, q_powers) / scale
    for _ in range(j - 1):
        fidelity *= photon
    return single, miss, fidelity


def _homogeneous(row, p, q_powers):
    """``sum_i row[i] p**(d-i) q**i`` by Horner's rule in p."""
    value = row[0] * p
    value += row[1] * q_powers[1]
    for coefficient, q_power in zip(row[2:], q_powers[2:]):
        value *= p
        value += coefficient * q_power
    return value


def _heralded(single, what: str):
    """``single``, a herald probability, checked to be nonzero: ``what`` is
    conditioned on a herald.  For the routes that divide by the rounded
    value (the series oracles and the train conditionals), so they also
    raise where it underflows, as at nbar = eta_d = 1e-200."""
    if single == 0.0:
        raise UndefinedConditionalError(f"heralding probability is zero; {what} is undefined")
    return single


def _can_herald(source: SourceModel, det: DetectorModel, what: str) -> None:
    """Raise where nothing can herald, for the per-bin closed forms, which
    never divide by S: ``S = x/(1 + x)**(j-1)`` with ``x = eta_d nbar`` is 0
    exactly where nbar or eta_d is (the smaller of the two), though the
    rounded S underflows to 0 well inside the domain."""
    _heralded(min(source.mean_photon_number, det.efficiency), what)


def herald_single_shot(source: SourceModel, det: DetectorModel) -> float:
    """Probability that a single pump pulse produces a successful herald:
    exactly one count on a number-resolved detector, any click on a
    bucket detector."""
    return float(_bin_herald(source.mean_photon_number, det.efficiency, det.kind)[0])


def herald_single_shot_oracle(source: SourceModel, det: DetectorModel) -> float:
    """Series evaluation of the single-shot herald probability,
    sum over n of p_thermal(n) * p_detect(herald|n)."""
    return _series(source, lambda n: _joint(source, det, n))


def _joint(source: SourceModel, det: DetectorModel, n) -> np.ndarray:
    """P(n photons and a herald) over an array of photon numbers."""
    return detect_prob(det, herald_outcome(det.kind), n) * thermal_pmf(source, n)


def _series(source: SourceModel, term) -> float:
    """Sum of ``term(n)`` over the photon numbers 1..:func:`_series_length`,
    ``_SERIES_CHUNK`` at a time, so memory stays bounded at any pump level;
    a series of one chunk is a single ``np.sum``."""
    stop = _series_length(source) + 1
    return math.fsum(float(np.sum(term(np.arange(start, min(start + _SERIES_CHUNK, stop)))))
                     for start in range(1, stop, _SERIES_CHUNK))


def _series_length(source: SourceModel) -> int:
    """``thermal_truncation(source)``, refused with a ValueError beyond
    ``_SERIES_LIMIT`` so that no oracle starts a series it cannot finish."""
    length = thermal_truncation(source)
    if length > _SERIES_LIMIT:
        from decimal import Decimal  # formats a length beyond the float range
        raise ValueError(f"a series oracle at nbar {source.mean_photon_number} would sum "
                         f"{Decimal(length):.3g} photon numbers, beyond the {_SERIES_LIMIT} "
                         f"of nbar {_SERIES_LIMIT_NBAR:g}")
    return length


def herald_train(source: SourceModel, det: DetectorModel, time_bins: int) -> float:
    """Probability of at least one herald across a train of pulses."""
    _check_count(time_bins, "time_bins")
    nbars = np.full(time_bins, source.mean_photon_number)
    return float(closed_form(nbars, det.efficiency, 1.0, det.kind).herald)


def prep_pmf(source: SourceModel, det: DetectorModel, n: int) -> float:
    """Photon-number distribution of the stored arm given a herald, for an
    int n (a float) or elementwise over an array of photon numbers.

    A herald biases the thermal statistics toward the photon numbers the
    detector is likely to flag, so this differs from the bare source law.
    Bayes' rule ``P(herald | n) p_thermal(n) / S`` with S cancelled by hand,
    in the thermal ratio ``q``, ``p`` and ``X`` of the herald law
    (:func:`loopsource.models._bin_herald`): ``p_thermal(n)`` is
    ``p q exp(-(n - 1) rate)`` (:func:`loopsource.models._thermal_rate`) and
    S is ``eta_d p q / (X X)`` resolved, ``eta_d p q / (X q)`` bucket.  Every
    factor is finite for every finite nbar, and dividing by eta_d first
    keeps the product normal at tiny eta_d and huge nbar.
    """
    counts = _counts(n, "heralded photon number", 1)
    _can_herald(source, det, "the post-herald state")
    nbar, eta = source.mean_photon_number, det.efficiency
    _, _, q, _, x_form = _bin_herald(nbar, eta, det.kind)
    last = x_form if det.kind is DetectorKind.NUMBER_RESOLVED else q
    thermal = np.exp(-(counts - 1.0) * _thermal_rate(nbar))
    return _shaped_as(_herald_given_n(det, counts) / eta * thermal * x_form * last, n)


def prep_pmf_oracle(source: SourceModel, det: DetectorModel, n):
    """Bayes-ratio evaluation of the heralded photon-number distribution,
    for an int n or elementwise over an array of photon numbers:
    p_detect(herald|n) * p_thermal(n) / (series herald probability)."""
    _counts(n, "heralded photon number", 1)
    single = _heralded(herald_single_shot_oracle(source, det), "the post-herald state")
    return _joint(source, det, n) / single


def fidelity_after_loops(
    source: SourceModel, det: DetectorModel, loss: LossModel, loops: int
) -> float:
    """Probability that exactly one photon reaches the output when the
    herald fired ``loops`` round trips before extraction."""
    _can_herald(source, det, "the per-loop fidelity")
    rows = _bin_rows(det.efficiency, transmission(loss, loops), det.kind)
    return float(_bin_law(source.mean_photon_number, det.efficiency, rows)[2])


def fidelity_after_loops_oracle(
    source: SourceModel, det: DetectorModel, loss: LossModel, loops: int
) -> float:
    """Series evaluation of the per-loop fidelity: the heralded
    photon-number distribution folded with binomial survival of exactly
    one photon."""
    tau = transmission(loss, loops)
    # the herald series once, not once per chunk as prep_pmf_oracle would
    single = _heralded(herald_single_shot_oracle(source, det), "the post-herald state")
    return _series(source, lambda n: _joint(source, det, n) / single
                   * _binomial_law(n, tau, "one")[0])


def detector_limited_fidelity(source: SourceModel, det: DetectorModel) -> float:
    """Herald-conditioned fidelity when the switch and fibre are lossless,
    leaving the detector as the only imperfection.  Independent of the
    number of time-bins.  Raises UndefinedConditionalError where the
    source can never herald (nbar 0 or a blind detector)."""
    return fidelity_after_loops(source, det, LossModel(1.0, 1.0), 0)


def detector_limited_fidelity_oracle(source: SourceModel, det: DetectorModel) -> float:
    """Series route to the lossless-loop fidelity (zero loops through a
    perfect switch)."""
    return fidelity_after_loops_oracle(source, det, LossModel(1.0, 1.0), 0)


def large_nbar_asymptote(eta: float, nbar: float) -> float:
    """Rough high-pump scaling eta**2/nbar of the unconditional bucket
    fidelity with every efficiency equal to eta.  A test reference only;
    see the README note on its accuracy."""
    _check_probability(eta, "eta")
    if not nbar > 0.0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
    return eta * eta / nbar


def outcome_distribution(config: ProtocolConfig) -> OutcomeDistribution:
    """Distribution of 'the last herald fired l loops before output': the
    freshest-herald weights of :func:`closed_form`, then the no-herald
    mass."""
    result = _closed_form_of(config)
    return OutcomeDistribution(np.append(result.weights, result.no_herald))


def unconditional_fidelity(config: ProtocolConfig) -> float:
    """Average single-photon fidelity over every trial, counting trials
    with no herald (which deliver vacuum) as fidelity zero."""
    return float(_closed_form_of(config).unconditional)


def conditional_fidelity(config: ProtocolConfig) -> float:
    """Average single-photon fidelity over heralded trials only."""
    return fidelity_report(config).conditional


def fidelity_report(config: ProtocolConfig) -> FidelityReport:
    result = _closed_form_of(config)
    _heralded(result.herald, "the conditional fidelity")
    return FidelityReport(
        conditional=float(result.conditional),
        unconditional=float(result.unconditional),
        herald_probability=float(result.herald),
        per_loop=tuple(float(f) for f in result.per_loop),
    )


def _closed_form_of(config: ProtocolConfig) -> ClosedForm:
    return _closed_form_rows(config.bin_means(), config.detector.efficiency, _train_rows(config))

