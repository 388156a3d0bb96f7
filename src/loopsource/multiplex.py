"""Parallel-source combinatorics and pump-power optimization.

Running m loop sources side by side and keeping the freshest herald
turns the per-source outcome law into an order statistic: the kept loop
index is the minimum across sources.  This module provides that
distribution in closed form, a brute-force enumeration oracle for small
m, and optimizers for the pump power (a single constant level, or one
level per time-bin).  Bin l's law does not depend on the train length,
so each optimizer solves a list of train lengths as heads of the longest
train, for either objective: ``optimize_constant`` and
``optimize_schedule`` are the one-head cases of ``_constant_heads`` and
``_schedule_heads``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import (
    ClosedForm, _bin_law, _closed_form_rows, _kernel_slices, _parallel_train, _train_rows
)
from .models import (
    ConstantPump,
    DetectorKind,
    OutcomeDistribution,
    PerBinPump,
    ProtocolConfig,
    _bin_herald,
    _check_count,
    _check_probability,
)

# Hard cap on brute-force enumeration work, (t+1)**m joint outcomes.
_ORACLE_MAX_OUTCOMES = 200_000

_GRID_POINTS = 64
# optimize_constant stops once its bracket is within this fraction of
# the winning level.
_XTOL = 1e-6
# Objective values hold to a few ulps of their terms' size (F = 1 is exact on
# the lossless resolved plateau, but S rounds), so closer values count as ties.
_TIE_RTOL = 8 * np.finfo(float).eps
# Dinkelbach's ratio increases strictly until it converges, so this cap
# only guards against rounding noise keeping it moving.
_DINKELBACH_MAX_ITER = 50


class Objective(Enum):
    CONDITIONAL = "conditional"
    UNCONDITIONAL = "unconditional"


@dataclass(frozen=True)
class OptimizationResult:
    schedule: ConstantPump | PerBinPump
    objective_value: float
    objective_kind: Objective
    evaluations: int


def m_source_distribution(
    single_shot: float, time_bins: int, sources: int
) -> OutcomeDistribution:
    """Freshest-herald distribution for m identical sources.

    The kept index is the minimum over sources, so the bank is one source
    with per-bin herald probability ``S_m = 1 - (1 - S)**m``
    (:func:`loopsource.analytic._parallel_train`), and the pmf is that
    source's law ``S_m (1 - S_m)**l``, with ``(1 - S_m)**t`` last."""
    _check_probability(single_shot, "herald probability")
    _check_count(time_bins, "time_bins")
    _check_count(sources, "source count")
    bank = _parallel_train(np.full(time_bins, single_shot), 0.0, sources)
    return OutcomeDistribution(np.append(bank.weights, bank.no_herald))


def m_source_distribution_oracle(
    single_shot: float, time_bins: int, sources: int
) -> OutcomeDistribution:
    """Brute-force enumeration of all (t+1)**m joint source outcomes,
    scoring each by the minimum index.  Exponential in m; a test oracle."""
    _check_probability(single_shot, "herald probability")
    _check_count(time_bins, "time_bins")
    _check_count(sources, "source count")
    if (time_bins + 1) ** sources > _ORACLE_MAX_OUTCOMES:
        raise ValueError("enumeration too large; the oracle is meant for small m and t")
    miss = 1.0 - single_shot
    per_source = [single_shot * miss**l for l in range(time_bins)]
    per_source.append(miss**time_bins)
    mass = [0.0] * (time_bins + 1)
    for combo in itertools.product(range(time_bins + 1), repeat=sources):
        weight = 1.0
        for outcome in combo:
            weight *= per_source[outcome]
        mass[min(combo)] += weight
    return OutcomeDistribution(tuple(mass))


def parallel_unconditional_fidelity(
    dist: OutcomeDistribution, per_loop_fidelity
) -> float:
    """Average output fidelity of the parallel arrangement, weighting the
    per-loop fidelities, each in [0, 1], by the freshest-herald
    distribution (the no-herald event contributes zero)."""
    fidelities = np.asarray(per_loop_fidelity, dtype=float)
    if fidelities.ndim != 1 or fidelities.size < dist.time_bins:
        raise ValueError(f"need a sequence of one fidelity for each of {dist.time_bins} "
                         f"loop counts, got shape {fidelities.shape}")
    outside = ~((fidelities >= 0.0) & (fidelities <= 1.0))  # NaN is outside
    if outside.any():
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelities[outside][0]}")
    weights = np.asarray(dist.probabilities[:-1])
    return float(np.sum(weights * fidelities[: dist.time_bins]))


def optimize_constant(
    config: ProtocolConfig,
    objective: Objective,
    bounds: tuple[float, float] = (1e-3, 10.0),
) -> OptimizationResult:
    """Best constant pump level within ``bounds`` for the chosen
    objective, by scan and zoom.  Each round evaluates ``_GRID_POINTS``
    levels in one kernel call, log-spaced over the bounds first, then
    evenly spaced between the two neighbours of the last winner, and
    picks its winner by :func:`_best_candidate`.  The loop stops once
    that bracket is within ``_XTOL`` of the winner, a relative tolerance,
    so it ends at any finite bounds.  The reported value is the closed
    form of the returned level; ``evaluations`` counts the levels scanned.
    """
    return _constant_heads(config, objective, [config.time_bins], bounds)[0]


def _constant_heads(
    config: ProtocolConfig,
    objective: Objective,
    lengths,
    bounds: tuple[float, float] = (1e-3, 10.0),
) -> list[OptimizationResult]:
    """:func:`optimize_constant` of the head of each length in ``lengths``
    (the train of that many freshest bins), each bit for bit the result for
    that shorter train.  The heads zoom side by side, each round in blocks
    of the heads still zooming, and of levels where one head alone exceeds
    the cell budget (:func:`loopsource.analytic._kernel_slices`)."""
    lo, hi = _check_bounds(bounds)
    evaluate = _objective(config, objective, _train_rows(config))
    lengths, t = np.asarray(lengths), config.time_bins
    grids = np.repeat(np.geomspace(lo, hi, _GRID_POINTS)[None], lengths.size, axis=0)
    widths = np.full(lengths.size, np.inf)
    results: list = [None] * lengths.size
    zooming, rounds = list(range(lengths.size)), 0
    while zooming:
        rounds += 1
        scan, heads = grids[zooming], lengths[zooming]
        values = np.empty_like(scan)
        for rows in _kernel_slices(len(zooming), _GRID_POINTS * t):
            for cols in _kernel_slices(_GRID_POINTS, t):
                pumps = np.repeat(scan[rows, cols, None], t, axis=-1)
                values[rows, cols] = evaluate(pumps, heads[rows])
        bests = _best_candidate(values, np.fmax.reduce(np.abs(values), axis=-1, keepdims=True))
        narrowing = []
        for row, value, best in zip(zooming, values, bests.tolist()):
            levels = grids[row]
            left, right = levels[max(best - 1, 0)], levels[min(best + 1, _GRID_POINTS - 1)]
            # Brackets nest, so one that stops narrowing has run out of
            # doubles (subnormal levels, where _XTOL of the level is 0).
            if right - left <= _XTOL * levels[best] or right - left >= widths[row]:
                results[row] = OptimizationResult(
                    schedule=ConstantPump(float(levels[best])),
                    objective_value=float(value[best]),
                    objective_kind=objective,
                    evaluations=rounds * _GRID_POINTS,
                )
            else:
                grids[row], widths[row] = np.linspace(left, right, _GRID_POINTS), right - left
                narrowing.append(row)
        zooming = narrowing
    return results


def optimize_schedule(
    config: ProtocolConfig,
    objective: Objective,
    bounds: tuple[float, float] = (1e-3, 10.0),
) -> OptimizationResult:
    """Best per-bin pump schedule within ``bounds``, by backward induction.

    The switch keeps the freshest herald, so the unconditional fidelity
    nests as ``U = S_0 F_0 + (1 - S_0)(S_1 F_1 + (1 - S_1)(...))`` and bin
    l's terms depend only on its own pump level.  The optimum is therefore
    the Bellman recursion ``W_t = 0``,
    ``W_l = max_n [S(n)(F_l(n) - lambda) + (1 - S(n)) W_{l+1}]``, run from
    the oldest bin to the newest (see :func:`_bellman_sweep`).

    ``lambda`` is 0 for the unconditional objective.  The conditional
    objective is the ratio U/H with H the herald probability; Dinkelbach
    iteration sets ``lambda`` to the ratio of the last schedule until it
    stops increasing.  The reported value is the closed form of the
    returned schedule, 0 when the train can never herald.  Returns the
    schedule in reverse-chronological order (entry 0 is the final bin);
    ``evaluations`` counts the candidate pump levels evaluated.
    """
    return _schedule_heads(config, objective, [config.time_bins], bounds)[0]


def _schedule_heads(
    config: ProtocolConfig,
    objective: Objective,
    lengths,
    bounds: tuple[float, float] = (1e-3, 10.0),
) -> list[OptimizationResult]:
    """:func:`optimize_schedule` of the head of each length in ``lengths``,
    each bit for bit the result for that shorter train.  Each Dinkelbach
    round is one :func:`_bellman_sweep` over the heads still iterating."""
    rows = _train_rows(config)
    sweep = _bellman_sweep(config, rows, bounds)
    evaluate = _objective(config, objective, rows)
    lams, found, results = [0.0] * len(lengths), [0] * len(lengths), [None] * len(lengths)
    # longest first, so that the heads still in the train at bin l are a prefix
    iterating, rounds = np.argsort(lengths, kind="stable")[::-1].tolist(), 0
    while iterating:
        rounds += 1
        last = objective is Objective.UNCONDITIONAL or rounds == _DINKELBACH_MAX_ITER
        span = np.array([lengths[head] for head in iterating])
        chosen, inside = sweep(span, np.array([[lams[head]] for head in iterating]))
        stack = zip(iterating, chosen, evaluate(chosen, span).tolist(), inside.tolist())
        iterating = []
        for head, schedule, value, count in stack:
            found[head] += count
            if last or value <= lams[head]:  # a NaN ratio never compares, so it keeps iterating
                t = int(lengths[head])
                results[head] = OptimizationResult(PerBinPump(tuple(schedule[:t].tolist())),
                                                   value, objective, 2 * rounds * t + found[head])
            else:
                lams[head] = value
                iterating.append(head)
    return results


def _bellman_sweep(config: ProtocolConfig, rows, bounds: tuple[float, float]):
    """Backward induction of heads of the train, whose bins have ``rows``
    (:func:`loopsource.analytic._train_rows`), each at its own ``lambda``.

    Each bin's maximum is exact: the Bellman term is rational in n, so its
    stationary points are the real roots of a polynomial of degree 6 or
    less (see :func:`_stationarity_terms`, :func:`_real_roots`), and the
    maximum lies at one of them or at a bound.  Candidate values are
    compared by :func:`_best_candidate`, with ties measured against the
    size of the bin's terms.  Bin l's rows, stationarity terms and bounds
    do not depend on the train length, so they are built once, and the
    heads longer than l take their step at bin l together: one eigenvalue
    call for their roots and one evaluation of their candidates.

    Returns ``sweep(span, lam)``, which maps head lengths ``span`` (longest
    first) and their ``lam[heads, 1]`` to the schedules ``[heads, t]``, lo
    past each head's end, and how many interior roots each evaluated."""
    lo, hi = _check_bounds(bounds)
    eta_d = config.detector.efficiency
    kind = config.detector.kind
    numer, denom = (np.array(np.broadcast_arrays(*row)).T for row in rows[:2])
    j = rows[2]
    numerators, denominators = _stationarity_terms(eta_d, numer, denom, j)
    # bin l's rows are row l of the [t, d] arrays; Python floats step faster
    bins = list(zip(numer.tolist(), denom.tolist(), itertools.repeat(j)))
    # S rises with n for a bucket detector and peaks at n = 1/eta_d for a
    # resolved one.
    peak = hi if kind is DetectorKind.BUCKET or eta_d * hi <= 1.0 else max(lo, 1.0 / eta_d)
    largest_single = float(_bin_herald(peak, eta_d, kind)[0])
    degree = numerators.shape[-1] - 1

    def sweep(span, lam):
        chosen = np.full((span.size, config.time_bins), lo)
        future = np.zeros((span.size, 1))
        found = np.zeros((span.size, degree), dtype=int)
        # each head's candidates [lo, interior roots ascending and NaN-padded, hi]
        candidates = np.empty((span.size, degree + 2))
        candidates[:, 0], candidates[:, -1] = lo, hi
        index = np.arange(span.size)
        tie_scale = largest_single * (1.0 + lam)
        spans, live = span.tolist(), 0
        for loops in reversed(range(spans[0])):
            while live < len(spans) and spans[live] > loops:
                live += 1  # a head joins at its oldest bin
            # Rounding can split a double root into a complex pair; its real
            # part is still a candidate, and a spurious candidate costs one
            # evaluation but cannot win.  A row with no roots (a blind
            # detector, the lossless plateau where every level is optimal,
            # or coefficients that overflowed into a NaN future value) leaves
            # the bounds alone, and a NaN value reaches the caller.
            future_live, lam_live = future[:live], lam[:live]
            roots = _real_roots(numerators[loops] - (lam_live + future_live) * denominators[loops])
            inside = (roots > lo) & (roots < hi)
            found[:live] += inside
            step = candidates[:live]
            step[:, 1:-1] = np.sort(np.where(inside, roots, np.nan), axis=1)
            single, miss, fidelity = _bin_law(step, eta_d, bins[loops])
            value = single * (fidelity - lam_live) + miss * future_live
            best = _best_candidate(value, tie_scale[:live] + np.abs(future_live))
            picked = index[:live], best
            chosen[:live, loops], future_live[:, 0] = step[picked], value[picked]
        return chosen, found.sum(axis=1)

    return sweep


def _real_roots(coefficients: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row of ``coefficients[k, d + 1]``
    (highest power first), ``[k, d]`` and NaN-padded, bit for bit those of
    ``np.roots(row)`` and in its order; rows with a non-finite coefficient
    have none.

    Rows of full degree, the usual case, share one eigenvalue call on a
    stack of companion matrices built as ``np.roots`` builds them.  A
    stack with any other row (a zero end coefficient, which ``np.roots``
    strips, or a non-finite one) is rare, and each of its finite rows goes
    to ``np.roots`` itself."""
    k, width = coefficients.shape
    if np.isfinite(coefficients).all() and coefficients[:, :: width - 1].all():
        # flattened [k, d * d]: the first row, and ones on the subdiagonal
        companion = np.zeros((k, (width - 1) ** 2))
        companion[:, : width - 1] = -coefficients[:, 1:] / coefficients[:, :1]
        companion[:, width - 1 :: width] = 1.0
        return np.linalg.eigvals(companion.reshape(k, width - 1, width - 1)).real
    roots = np.full((k, width - 1), np.nan)
    for out, row in zip(roots, coefficients):
        if np.isfinite(row).all():
            real = np.roots(row).real
            out[: real.size] = real
    return roots


def _stationarity_terms(eta_d: float, numer: np.ndarray, denom: np.ndarray, j: int):
    """Coefficient rows ``[t, degree + 1]`` (highest power first, as
    ``np.roots`` takes them) of polynomials ``A_l`` and ``B_l`` in the pump
    level n such that ``A_l - c B_l`` has the sign of the derivative of bin
    l's Bellman term ``S F_l - c S``, from the rows ``[t, d]`` of each
    bin's ``(Q, R, j)`` (:func:`loopsource.analytic._train_rows`).

    With ``x = eta_d n``, ``S F_l = P / R**j`` with ``P = eta_d n Q`` and
    ``dS/dn = D / (1 + x)**j`` with ``D = eta_d (1 - (j - 2) x)``.  Clearing
    the positive denominators ``R**(j+1) (1 + x)**j`` of the derivative
    leaves ``A = (P' R - j P R') (1 + x)**j`` and ``B = D R**(j+1)``, of
    degree 6 (bucket) or 5 (resolved)."""
    # P = eta_d n Q: Q's coefficients moved up one power
    numer = eta_d * np.append(numer, np.zeros((len(numer), 1)), axis=1)
    # D has degree j - 2: its leading coefficient is dropped for a bucket.
    slope = eta_d * np.array([-(j - 2) * eta_d, 1.0])[3 - j :]
    # P' R and P R' have the same degree, so their rows align.
    gradient = _polymul(_polyder(numer), denom) - j * _polymul(numer, _polyder(denom))
    scale = slope
    for _ in range(j):
        gradient = _polymul(gradient, np.array([eta_d, 1.0]))
        scale = _polymul(scale, denom)
    return gradient, _polymul(scale, denom)


def _polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials stored as coefficient rows ``[..., m]`` and
    ``[..., k]``, highest power first, broadcast over the leading axes."""
    m, k = p.shape[-1], q.shape[-1]
    terms = [p * q[..., i : i + 1] for i in range(k)]
    out = np.zeros(terms[0].shape[:-1] + (m + k - 1,))
    for i, term in enumerate(terms):
        out[..., i : i + m] += term
    return out


def _polyder(p: np.ndarray) -> np.ndarray:
    """Derivative of coefficient rows ``[..., m]``, highest power first."""
    return p[..., :-1] * np.arange(p.shape[-1] - 1, 0, -1)


def _best_candidate(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Index of the best candidate in each row of ``values`` (candidates
    along the last axis, over ascending pump levels); ``scale`` is
    ``[..., 1]``, one entry per row.  A NaN candidate never wins (an
    overflowed closed form reads NaN).  Values within ``_TIE_RTOL * scale``
    of the row's largest tie, and ties go to the lowest pump level."""
    threshold = np.fmax.reduce(values, axis=-1, keepdims=True) - _TIE_RTOL * scale
    return np.argmax(values >= threshold, axis=-1)


def _objective(config: ProtocolConfig, objective: Objective, rows):
    """Objective of heads of the train whose bins have ``rows``: maps
    reverse-chronological pump vectors ``nbars[k, ..., t]`` (t =
    ``config.time_bins``) and k head lengths to values ``[k, ...]``, row i
    that of its head of length ``lengths[i]``, bit for bit the objective of
    that shorter train (see :meth:`ClosedForm.by_length`).  The conditional
    objective is extended with value 0 where the train can never herald,
    keeping it total."""
    if not isinstance(objective, Objective):
        raise ValueError(f"objective must be an Objective, got {objective!r}")
    eta_d = config.detector.efficiency
    field = objective.value  # the ClosedForm attribute of the same name

    def evaluate(nbars, lengths):
        result = _closed_form_rows(nbars, eta_d, rows)
        values = getattr(result, field)
        for row, t in enumerate(lengths.tolist()):
            if t < config.time_bins:
                values[row] = getattr(ClosedForm(*(part[row, ..., :t] for part in result)), field)
        return values

    return evaluate


def _check_bounds(bounds: tuple[float, float]) -> tuple[float, float]:
    lo, hi = bounds
    if not (0.0 < lo < hi < np.inf):
        raise ValueError(f"bounds must satisfy 0 < lo < hi < inf, got {bounds}")
    return float(lo), float(hi)
