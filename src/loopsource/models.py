"""Domain models and elementary probability kernels for a loop-multiplexed
heralded single-photon source.

A pulsed down-conversion source emits photon pairs into a herald arm
(watched by a detector) and a signal arm (stored in a switchable fibre
loop).  The types here describe the pieces of that apparatus: thermal
photon statistics of the source, the detector response, the switch and
fibre losses, and the protocol configuration shared by the closed-form
and Monte Carlo code paths.

The thermal rate (:func:`_thermal_rate`), the thermal law's vacuum term
(:func:`_thermal_vacuum_log`) and the binomial law (:func:`_binomial_law`)
are written here only, array-native.  The rate is read by ``thermal_pmf``,
``thermal_truncation``, ``analytic.prep_pmf`` and the Monte Carlo
quantile; the vacuum term by the Monte Carlo gap; the binomial law by
``detect_prob``, ``analytic.prep_pmf``, the Monte Carlo herald test and
thinning, and the m-source bank (``analytic._parallel_train``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Photon-number series are truncated once the cumulative thermal mass
# reaches 1 - TAIL_MASS, but never below TRUNCATION_FLOOR terms.
TAIL_MASS = 1e-12
TRUNCATION_FLOOR = 64


class UndefinedConditionalError(ValueError):
    """A conditional quantity was requested but the conditioning event has
    probability zero (for example a heralding-conditioned fidelity when the
    source can never herald)."""


class DetectorKind(Enum):
    NUMBER_RESOLVED = "resolved"
    BUCKET = "bucket"


class DetectorOutcome(Enum):
    """Detection outcomes; ZERO/ONE apply to number-resolved detectors,
    NO_CLICK/CLICK to bucket detectors."""

    ZERO = "zero"
    ONE = "one"
    NO_CLICK = "no_click"
    CLICK = "click"


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no count, index or seed
    return isinstance(value, int) and not isinstance(value, bool)


def _check_count(value: int, name: str) -> None:
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_kind(kind) -> None:
    if not isinstance(kind, DetectorKind):
        raise ValueError(f"kind must be a DetectorKind, got {kind!r}")


def _check_probability(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_mean_photon_number(nbar: float) -> float:
    """``nbar`` once checked, with -0.0 read as 0.0: adding 0 maps -0.0 to
    0.0 and keeps every other value and its type."""
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    return nbar + 0


@dataclass(frozen=True)
class SourceModel:
    """Single-mode down-conversion source with thermal photon-number
    statistics of mean ``mean_photon_number``."""

    mean_photon_number: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mean_photon_number", _check_mean_photon_number(self.mean_photon_number)
        )


@dataclass(frozen=True)
class DetectorModel:
    """Herald detector with quantum efficiency ``efficiency``, either
    photon-number resolving or a bucket (click/no-click) detector."""

    kind: DetectorKind
    efficiency: float

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        _check_probability(self.efficiency, "detector efficiency")


@dataclass(frozen=True)
class LossModel:
    """Switch and fibre-loop transmissions of the storage loop."""

    switch_efficiency: float
    fibre_efficiency: float

    def __post_init__(self) -> None:
        _check_probability(self.switch_efficiency, "switch efficiency")
        _check_probability(self.fibre_efficiency, "fibre efficiency")


@dataclass(frozen=True)
class ConstantPump(SourceModel):
    """The same mean photon number in every time-bin."""

    def bin_means(self, time_bins: int) -> np.ndarray:
        return np.full(time_bins, self.mean_photon_number)


@dataclass(frozen=True)
class PerBinPump:
    """One mean photon number per time-bin, indexed in reverse
    chronological order: entry 0 is the final bin (zero loops before
    output), entry t-1 is the earliest bin."""

    mean_photon_numbers: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_photon_numbers", tuple(
            _check_mean_photon_number(float(x)) for x in self.mean_photon_numbers))
        if len(self.mean_photon_numbers) == 0:
            raise ValueError("per-bin pump schedule must have at least one entry")

    def _check_length(self, time_bins: int) -> None:
        if len(self.mean_photon_numbers) != time_bins:
            raise ValueError(
                f"schedule has {len(self.mean_photon_numbers)} entries "
                f"but the protocol has {time_bins} time-bins"
            )

    def bin_means(self, time_bins: int) -> np.ndarray:
        self._check_length(time_bins)
        return np.asarray(self.mean_photon_numbers, dtype=float)


PumpSchedule = ConstantPump | PerBinPump


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one loop-source run: how many time-bins the
    source is pumped for, the pump schedule, and the detector and loss
    models."""

    time_bins: int
    pump: PumpSchedule
    detector: DetectorModel
    loss: LossModel

    def __post_init__(self) -> None:
        _check_count(self.time_bins, "time_bins")
        if isinstance(self.pump, PerBinPump):
            self.pump._check_length(self.time_bins)
        elif not isinstance(self.pump, ConstantPump):
            raise ValueError(f"pump must be ConstantPump or PerBinPump, got {self.pump!r}")

    def bin_means(self) -> np.ndarray:
        """Mean photon number per bin, indexed by loops before output."""
        return self.pump.bin_means(self.time_bins)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability mass over 'the last herald happened l loops before the
    output' for l in 0..t-1, plus the no-herald event at index t."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.probabilities, dtype=float)
        probs = tuple(values.tolist())
        object.__setattr__(self, "probabilities", probs)
        if len(probs) < 2:
            raise ValueError("need at least one time-bin entry plus the no-herald entry")
        outside = ~((values >= -1e-15) & (values <= 1.0 + 1e-12))  # NaN is outside
        if outside.any():
            raise ValueError(f"probability entry out of range: {probs[np.argmax(outside)]}")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total}")

    @property
    def time_bins(self) -> int:
        return len(self.probabilities) - 1

    @property
    def no_herald(self) -> float:
        return self.probabilities[-1]

    @property
    def herald_probability(self) -> float:
        """The capped sum of the herald entries (see :func:`_capped_herald`),
        exactly as ``analytic.ClosedForm.herald`` sums its weights."""
        return float(_capped_herald(np.sum(self.probabilities[:-1])))


def _capped_herald(weight_sum):
    """The herald probability from the sum of the freshest-herald weights,
    rather than ``1 - no_herald``, which cancels to noise when heralds are
    rare.  The exact sum is at most 1; rounding can push it a few ulps over
    when heralds are near certain, so it is capped at 1."""
    return np.minimum(weight_sum, 1.0)


def _counts(n, noun: str, least: int = 0) -> np.ndarray:
    """``n`` (an int or an array) as an array of integer counts >= ``least``
    of at least one dimension: numpy evaluates ``x**2`` over a 0-d exponent
    as ``x*x``, so a scalar call would not match the array call.  Bools and
    non-integral floats (NaN and infinities among them) are no counts; an
    integer array needs no scan for them."""
    counts = np.atleast_1d(n)
    if np.any(counts < least):
        raise ValueError(f"{noun} must be >= {least}, got {n}")
    kind = counts.dtype.kind
    if kind == "b" or kind == "f" and not np.all(np.isfinite(counts) & (counts == np.floor(counts))):
        raise ValueError(f"{noun} must be an integer, got {n!r}")
    return counts


def _shaped_as(value, n):
    """``value``, computed over ``np.atleast_1d(n)``, as a float for an int n."""
    return float(value[0]) if np.ndim(n) == 0 else value


def thermal_pmf(source: SourceModel, n):
    """Probability that the source emits exactly n photon pairs in one bin,
    for an int n or elementwise over an array of photon numbers.

    The single-mode thermal law (1/(nbar+1)) * (nbar/(nbar+1))**n, as
    ``exp(-n rate) / (nbar + 1)`` at the rate of :func:`_thermal_rate`.  A
    vacuum source reads 1 at n = 0 and 0 elsewhere.
    """
    nbar = source.mean_photon_number
    counts = _counts(n, "photon number")
    if nbar == 0.0:
        return _shaped_as(np.where(counts == 0, 1.0, 0.0), n)
    return _shaped_as(np.exp(-counts * _thermal_rate(nbar)) / (nbar + 1.0), n)


def _thermal_rate(nbar):
    """The rate ``log1p(1/nbar)`` at which the thermal law falls with n, for
    a float or an array nbar: ``-log(nbar)`` where 1/nbar overflows, ``inf``
    (never a photon) at nbar 0.  Not the log of the rounded ratio
    nbar/(1 + nbar), whose error grows like n ulps and which is 1 near 1e16."""
    with np.errstate(divide="ignore", over="ignore"):
        inverse = np.divide(1.0, nbar)
        return np.where(np.isfinite(inverse), np.log1p(inverse), -np.log(nbar))


def _thermal_vacuum_log(nbar):
    """``log P(n = 0) = -log1p(nbar)`` of the thermal law, for a float or an
    array nbar.  Not the log of the rounded ``1 / (1 + nbar)``, which reads
    0 below nbar ~1e-16."""
    return -np.log1p(nbar)


def thermal_truncation(source: SourceModel) -> int:
    """Smallest series length whose thermal tail mass is below TAIL_MASS,
    floored at TRUNCATION_FLOOR terms, all that a vacuum (rate inf) gets.

    The tail beyond n is ``exp(-(n + 1) rate)``, so the cutoff is closed-form:
    the ceiling of ``-log(TAIL_MASS) / rate``.  That quotient overflows a
    float above nbar ~6.5e306, so it is formed over 32 (a power of two, so
    the same rounding) and the ceiling of 32 times it is taken in integers.
    """
    rate = float(_thermal_rate(source.mean_photon_number))
    numerator, denominator = (math.log(TAIL_MASS) / -32.0 / rate).as_integer_ratio()
    return max(TRUNCATION_FLOOR, -(-32 * numerator // denominator) - 1)


def detect_prob(det: DetectorModel, outcome: DetectorOutcome, n):
    """Conditional probability of a detection outcome given n photons hit
    the detector, for an int n or elementwise over an array of photon
    numbers.  ZERO/ONE are only defined for number-resolved detectors and
    NO_CLICK/CLICK only for bucket detectors.  Of the count Binomial(n, eta)
    (:func:`_binomial_law`), ZERO is P(none), ONE P(one) and CLICK P(some);
    NO_CLICK is ``1 - CLICK``.
    """
    counts = _counts(n, "photon number")
    resolved = det.kind is DetectorKind.NUMBER_RESOLVED
    if outcome is herald_outcome(det.kind):
        value = _herald_given_n(det, counts)
    elif outcome is DetectorOutcome.ZERO and resolved:
        value = _binomial_law(counts, det.efficiency, "none")[0]
    elif outcome is DetectorOutcome.NO_CLICK and not resolved:
        value = 1.0 - _herald_given_n(det, counts)
    else:
        kind = "number-resolved" if resolved else "bucket"
        raise ValueError(f"outcome {outcome} is not defined for a {kind} detector")
    return _shaped_as(value, n)


def _herald_given_n(det: DetectorModel, n):
    """:func:`detect_prob` of the herald outcome, unchecked: the Monte Carlo
    herald test calls it on every round, where a count scan would cost time."""
    term = "one" if det.kind is DetectorKind.NUMBER_RESOLVED else "some"
    return _binomial_law(n, det.efficiency, term)[0]


# Each term of Binomial(n, p): its value in m = log1p(-p), and at p = 1.
_BINOMIAL = {
    "none": (lambda n, p, m: np.exp(n * m), lambda n: n == 0),
    "one": (lambda n, p, m: p * n * np.exp((n - 1.0) * m), lambda n: n == 1),
    "some": (lambda n, p, m: -np.expm1(n * m), lambda n: n >= 1),
}


def _binomial_law(n, p, *terms: str) -> tuple:
    """P(none), P(one) or P(some) of Binomial(n, p) for each of ``terms``,
    elementwise over counts n and probabilities p, in log form so that none
    cancels at tiny p.  At p = 1 (m = -inf) each is its exact indicator:
    by a branch for a scalar p, by ``np.where`` for an array p."""
    laws = [_BINOMIAL[term] for term in terms]
    if np.ndim(p) == 0:
        if p == 1.0:
            return tuple(np.asarray(exact(n), dtype=float) for _, exact in laws)
        m = np.log1p(-p)  # finite, so no warning to silence
        return tuple(law(n, p, m) for law, _ in laws)
    certain = p == 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.log1p(-p)
        return tuple(np.where(certain, exact(n), law(n, p, m)) for law, exact in laws)


def herald_outcome(kind: DetectorKind) -> DetectorOutcome:
    """The outcome that counts as a successful herald for each detector."""
    if kind is DetectorKind.NUMBER_RESOLVED:
        return DetectorOutcome.ONE
    return DetectorOutcome.CLICK


def transmission(loss: LossModel, loops):
    """Net transmission of a photon stored for ``loops`` round trips (an
    int, or an array of loop counts): one switch pass to enter plus a
    switch and a fibre pass per loop, ``eta_s * (eta_s * eta_f)**loops``.
    An int is evaluated as a one-entry array, so it matches the array call
    bit for bit (see :func:`_counts`)."""
    counts = _counts(loops, "loop count")
    eta_s = loss.switch_efficiency
    return _shaped_as(eta_s * (eta_s * loss.fibre_efficiency) ** counts, loops)
