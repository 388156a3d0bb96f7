import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsource import (
    ConstantPump,
    DetectorKind,
    DetectorModel,
    LossModel,
    Objective,
    PerBinPump,
    ProtocolConfig,
    conditional_fidelity,
    fidelity_report,
    m_source_distribution,
    m_source_distribution_oracle,
    optimize_constant,
    optimize_schedule,
    parallel_unconditional_fidelity,
    unconditional_fidelity,
)
from loopsource import analytic, multiplex
from loopsource.analytic import _bin_law, _bin_rows, closed_form
from loopsource.models import DetectorOutcome, detect_prob, transmission
from loopsource.multiplex import (
    _TIE_RTOL,
    _constant_heads,
    _real_roots,
    _schedule_heads,
    _stationarity_terms,
)

RESOLVED = DetectorKind.NUMBER_RESOLVED
BUCKET = DetectorKind.BUCKET

S_GRID = (0.05, 0.3, 0.5, 0.9)
T_GRID = (1, 2, 4, 7)


def test_m_source_two_source_values():
    dist = m_source_distribution(0.5, 2, 2)
    assert dist.probabilities == pytest.approx([0.75, 0.1875, 0.0625])
    assert dist.no_herald == pytest.approx(0.0625)


def test_m_source_edge_rates():
    for m in (1, 2, 3):
        always = m_source_distribution(1.0, 3, m)
        assert always.probabilities == pytest.approx([1.0, 0.0, 0.0, 0.0])
        never = m_source_distribution(0.0, 3, m)
        assert never.probabilities == pytest.approx([0.0, 0.0, 0.0, 1.0])


def test_m_source_two_source_formula_on_grid():
    """Two sources: S(1-S)^{2j}(2-S) for the freshest herald at j, and
    (1-S)^{2t} for no herald."""
    for S in S_GRID:
        for t in T_GRID:
            dist = m_source_distribution(S, t, 2)
            for j in range(t):
                expected = S * (1.0 - S) ** (2 * j) * (2.0 - S)
                assert dist.probabilities[j] == pytest.approx(expected, abs=1e-15)
            assert dist.probabilities[t] == pytest.approx((1.0 - S) ** (2 * t), abs=1e-15)


def test_m_source_matches_brute_force_enumeration():
    for S in (0.2, 0.5, 0.85):
        for t in (1, 2, 3, 4):
            for m in (1, 2, 3):
                fast = m_source_distribution(S, t, m)
                slow = m_source_distribution_oracle(S, t, m)
                assert np.allclose(fast.probabilities, slow.probabilities, atol=1e-12)


def test_m_source_single_source_is_the_plain_distribution():
    S, t = 0.3, 5
    dist = m_source_distribution(S, t, 1)
    expected = [S * (1.0 - S) ** l for l in range(t)] + [(1.0 - S) ** t]
    assert dist.probabilities == pytest.approx(expected)


def test_more_sources_help():
    S, t = 0.25, 6
    no_herald = []
    freshest = []
    for m in (1, 2, 3, 4, 6):
        dist = m_source_distribution(S, t, m)
        no_herald.append(dist.no_herald)
        freshest.append(dist.probabilities[0])
    assert all(b < a for a, b in zip(no_herald, no_herald[1:]))
    assert all(b > a for a, b in zip(freshest, freshest[1:]))


def test_parallel_fidelity_with_one_source_matches_direct_average():
    config = ProtocolConfig(
        5, ConstantPump(0.6), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.95)
    )
    report = fidelity_report(config)
    single = (
        0.6 * 0.9 / (1.0 + 0.6 * 0.9)
    )  # bucket single-shot x/(1+x) with x = nbar * eta_d
    dist = m_source_distribution(single, 5, 1)
    combined = parallel_unconditional_fidelity(dist, report.per_loop)
    assert combined == pytest.approx(unconditional_fidelity(config), rel=1e-12)


def test_parallel_fidelity_improves_with_sources():
    config = ProtocolConfig(
        5, ConstantPump(0.4), DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.95)
    )
    report = fidelity_report(config)
    single = 0.4 * 0.9 / (1.0 + 0.4 * 0.9)
    values = [
        parallel_unconditional_fidelity(m_source_distribution(single, 5, m), report.per_loop)
        for m in (1, 2, 4)
    ]
    assert values[0] < values[1] < values[2]


def test_parallel_fidelity_requires_enough_entries():
    dist = m_source_distribution(0.3, 4, 2)
    with pytest.raises(ValueError):
        parallel_unconditional_fidelity(dist, (0.5, 0.5))


@pytest.mark.parametrize("fidelities", [
    0.5,
    [[0.5] * 4] * 4,
    (0.5, math.nan, 0.5, 0.5),
    (0.5, -0.1, 0.5, 0.5),
    (0.5, 0.5, 1.0 + 1e-15, 0.5),
])
def test_parallel_fidelity_rejects_bad_fidelities(fidelities):
    dist = m_source_distribution(0.3, 4, 2)
    with pytest.raises(ValueError):
        parallel_unconditional_fidelity(dist, fidelities)
    # the bounds themselves are fidelities
    assert parallel_unconditional_fidelity(dist, (0.0, 1.0, 0.0, 1.0)) >= 0.0


def test_m_source_herald_is_the_detector_law():
    # S_m is P(some) of Binomial(m, S), the law of a bucket detector of
    # efficiency S hit by m photons, and both read the one copy of it.
    singles = np.random.default_rng(22).random(2000).tolist() + [0.0, 1.0]
    for m in (1, 2, 4, 64):
        for single in singles:
            bank = m_source_distribution(single, 3, m).probabilities[0]
            click = detect_prob(DetectorModel(BUCKET, single), DetectorOutcome.CLICK, m)
            assert bank == click, (single, m)


def test_distribution_validation():
    with pytest.raises(ValueError):
        m_source_distribution(1.5, 3, 2)
    with pytest.raises(ValueError):
        m_source_distribution(0.5, 0, 2)
    with pytest.raises(ValueError):
        m_source_distribution(0.5, 3, 0)


@pytest.mark.parametrize("distribution", [m_source_distribution, m_source_distribution_oracle])
@pytest.mark.parametrize("sources", [1.5, 2.0, True, False, 0, -1, "2", None, np.int64(2)])
def test_source_count_must_be_a_positive_int(distribution, sources):
    with pytest.raises(ValueError, match="source count must be a positive integer"):
        distribution(0.5, 3, sources)


@pytest.mark.parametrize("distribution", [m_source_distribution, m_source_distribution_oracle])
@pytest.mark.parametrize("time_bins", [2.0, True, 0])
def test_m_source_time_bins_must_be_a_positive_int(distribution, time_bins):
    with pytest.raises(ValueError, match="time_bins must be a positive integer"):
        distribution(0.5, time_bins, 2)


# S = 0, S = 1, or log-uniform over [1e-15, 1]: rare heralds, where
# differencing survivals cancels, and near-certain ones, where 1 - S_m does
herald_probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(-15.0, 0.0).map(lambda e: 10.0**e)
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(single=herald_probabilities, t=st.integers(1, 8), m=st.integers(1, 4))
def test_m_source_distribution_matches_enumeration(single, t, m):
    fast = np.array(m_source_distribution(single, t, m).probabilities)
    slow = np.array(m_source_distribution_oracle(single, t, m).probabilities)
    # subnormal entries carry no relative precision, so they get an
    # absolute floor of the smallest normal number
    assert np.all(np.abs(fast - slow) <= 1e-13 * np.abs(slow) + np.finfo(float).tiny)
    assert abs(math.fsum(fast) - 1.0) <= 1e-12


def _bucket_config(t, eta=0.95):
    return ProtocolConfig(
        t, ConstantPump(1.0), DetectorModel(BUCKET, eta), LossModel(eta, eta)
    )


def test_optimize_constant_finds_the_lossless_single_bin_peak():
    """With one bin, no loss and a perfect bucket detector the target is
    nbar/(1+nbar)^2, maximized at nbar = 1 with value 1/4."""
    config = ProtocolConfig(
        1, ConstantPump(5.0), DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0)
    )
    result = optimize_constant(config, Objective.UNCONDITIONAL)
    assert result.schedule.mean_photon_number == pytest.approx(1.0, abs=1e-4)
    assert result.objective_value == pytest.approx(0.25, abs=1e-9)
    assert result.objective_kind is Objective.UNCONDITIONAL
    assert result.evaluations > 0


def test_optimize_constant_plateau_returns_lowest_pump():
    # resolved detector with every efficiency at 1 has conditional
    # fidelity 1 regardless of pump; prefer the smallest argument
    config = ProtocolConfig(
        4, ConstantPump(1.0), DetectorModel(RESOLVED, 1.0), LossModel(1.0, 1.0)
    )
    result = optimize_constant(config, Objective.CONDITIONAL)
    assert result.objective_value == pytest.approx(1.0, abs=1e-12)
    # anywhere inside the lowest grid cell of the default [1e-3, 10] range
    assert result.schedule.mean_photon_number < 1.2e-3


def test_optimize_constant_respects_bounds():
    config = _bucket_config(3)
    result = optimize_constant(config, Objective.UNCONDITIONAL, (0.5, 0.6))
    assert 0.5 <= result.schedule.mean_photon_number <= 0.6


def test_optimize_constant_ends_at_subnormal_bounds():
    # the relative tolerance is 0 there; the zoom stops when its bracket
    # runs out of doubles (tests/test_cli.py runs bounds at 1e12 and up
    # in a subprocess with a timeout)
    config = _bucket_config(3)
    result = optimize_constant(config, Objective.UNCONDITIONAL, (1e-322, 1e-320))
    assert 1e-322 <= result.schedule.mean_photon_number <= 1e-320


@pytest.mark.parametrize("bounds", [(1e-3, 10.0), (1e-6, 1e6), (0.5, 0.6)])
@pytest.mark.parametrize("t", [1, 3, 7, 20])
@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_optimize_constant_is_not_beaten_by_a_dense_log_grid(kind, objective, t, bounds):
    config = ProtocolConfig(
        t, ConstantPump(1.0), DetectorModel(kind, 0.9), LossModel(0.95, 0.9)
    )
    result = optimize_constant(config, objective, bounds)
    grid = np.geomspace(*bounds, 20_000)
    taus = transmission(config.loss, np.arange(t))
    values = getattr(
        closed_form(np.repeat(grid[:, None], t, axis=1), 0.9, taus, kind), objective.value
    )
    best = float(np.max(values))
    assert bounds[0] <= result.schedule.mean_photon_number <= bounds[1]
    assert best <= result.objective_value + _TIE_RTOL * best


def test_optimize_schedule_single_bin_matches_constant():
    config = _bucket_config(1)
    constant = optimize_constant(config, Objective.UNCONDITIONAL)
    schedule = optimize_schedule(config, Objective.UNCONDITIONAL)
    assert isinstance(schedule.schedule, PerBinPump)
    assert schedule.objective_value == pytest.approx(constant.objective_value, abs=1e-8)
    assert schedule.schedule.mean_photon_numbers[0] == pytest.approx(
        constant.schedule.mean_photon_number, abs=1e-3
    )


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("t", [2, 3])
def test_optimize_schedule_dominates_constant(t, objective):
    config = _bucket_config(t)
    constant = optimize_constant(config, objective)
    schedule = optimize_schedule(config, objective)
    assert schedule.objective_value >= constant.objective_value - 1e-12


def _joint_grid_best(config, objective, points=100):
    """Best objective over every schedule on a log grid, all bins
    searched jointly: axis l of one broadcast holds bin l's pump level."""
    eta_d, kind = config.detector.efficiency, config.detector.kind
    per_loop = config.loss.switch_efficiency * config.loss.fibre_efficiency
    grid = np.geomspace(1e-3, 10.0, points)
    unconditional, no_later = 0.0, 1.0
    for loops, nbars in enumerate(np.ix_(*[grid] * config.time_bins)):
        tau = config.loss.switch_efficiency * per_loop**loops
        single, _, fidelity = _bin_law(nbars, eta_d, _bin_rows(eta_d, tau, kind))
        unconditional = unconditional + no_later * single * fidelity
        no_later = no_later * (1.0 - single)
    if objective is Objective.CONDITIONAL:
        unconditional = unconditional / (1.0 - no_later)
    return float(np.max(unconditional))


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("t", [2, 3])
def test_optimize_schedule_is_not_beaten_by_joint_grid_search(t, kind, objective):
    config = ProtocolConfig(
        t, ConstantPump(1.0), DetectorModel(kind, 0.9), LossModel(0.95, 0.9)
    )
    result = optimize_schedule(config, objective)
    assert _joint_grid_best(config, objective) <= result.objective_value + 1e-12


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_optimize_schedule_blind_detector_returns_zero_at_lowest_pump(kind, objective):
    config = ProtocolConfig(
        3, ConstantPump(1.0), DetectorModel(kind, 0.0), LossModel(0.9, 0.9)
    )
    result = optimize_schedule(config, objective)
    assert result.objective_value == 0.0
    assert result.schedule.mean_photon_numbers == (1e-3,) * 3


def test_optimize_schedule_plateau_returns_lowest_pump():
    # F = 1 for every pump level, so every schedule is conditionally optimal
    config = ProtocolConfig(
        4, ConstantPump(1.0), DetectorModel(RESOLVED, 1.0), LossModel(1.0, 1.0)
    )
    result = optimize_schedule(config, Objective.CONDITIONAL)
    assert result.objective_value == pytest.approx(1.0, abs=1e-12)
    assert result.schedule.mean_photon_numbers == (1e-3,) * 4


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize(
    "eta_d, tau", [(1.0, 1.0), (1.0, 0.7), (0.9, 1.0), (0.85, 0.6), (1e-3, 0.9), (0.5, 0.05)]
)
def test_stationarity_polynomial_has_the_sign_of_the_bellman_slope(kind, eta_d, tau):
    """A - c B against a central difference of g(n) = S F - c S, which the
    closed forms compute without the polynomials."""
    rng = np.random.default_rng(17)
    n = np.geomspace(1e-3, 1e3, 400) * rng.uniform(0.9, 1.1, 400)
    c = rng.uniform(0.0, 2.0, 400)
    numer, denom, j = _bin_rows(eta_d, tau, kind)
    numerators, denominators = _stationarity_terms(eta_d, np.array([numer]), np.array([denom]), j)
    poly = np.array([np.polyval(numerators[0] - ci * denominators[0], ni) for ni, ci in zip(n, c)])

    def g(nbar):
        single, _, fidelity = _bin_law(nbar, eta_d, _bin_rows(eta_d, tau, kind))
        return single * (fidelity - c)

    step = 1e-5 * n
    slope = (g(n + step) - g(n - step)) / (2.0 * step)
    # skip points where the slope is within rounding of the difference
    resolved = np.abs(slope) * n > 1e-8 * (np.abs(g(n)) + 1e-300)
    assert resolved.sum() > 300
    assert np.array_equal(np.sign(poly[resolved]), np.sign(slope[resolved]))


def _dense_bellman_best(config, objective, bounds, points=20_000):
    """Best objective over schedules whose every bin lies on a dense log
    grid: the per-bin Bellman recursion of optimize_schedule with a grid
    argmax in place of the exact candidates, and Dinkelbach iteration for
    the conditional objective."""
    eta_d, kind = config.detector.efficiency, config.detector.kind
    taus = transmission(config.loss, np.arange(config.time_bins))
    grid = np.geomspace(*bounds, points)
    single = _bin_law(grid, eta_d, _bin_rows(eta_d, 1.0, kind))[0]
    closed_form = (
        unconditional_fidelity if objective is Objective.UNCONDITIONAL else conditional_fidelity
    )
    lam = 0.0
    while True:
        schedule, future = [0.0] * config.time_bins, 0.0
        for loops in reversed(range(config.time_bins)):
            fidelity = _bin_law(grid, eta_d, _bin_rows(eta_d, taus[loops], kind))[2]
            values = single * (fidelity - lam) + (1.0 - single) * future
            best = int(np.argmax(values))
            schedule[loops], future = grid[best], values[best]
        pump = PerBinPump(tuple(schedule))
        value = closed_form(ProtocolConfig(config.time_bins, pump, config.detector, config.loss))
        if objective is Objective.UNCONDITIONAL or value <= lam:
            return max(value, lam)
        lam = value


@pytest.mark.parametrize("bounds", [(1e-6, 1e6), (0.5, 0.6)])
@pytest.mark.parametrize("seed", range(8))
def test_optimize_schedule_is_not_beaten_by_a_dense_per_bin_grid(seed, bounds):
    rng = np.random.default_rng(seed)
    for kind in (RESOLVED, BUCKET):
        for objective in Objective:
            eta_d, eta_s, eta_f = rng.uniform(0.5, 1.0, 3)
            config = ProtocolConfig(
                int(rng.integers(1, 7)),
                ConstantPump(1.0),
                DetectorModel(kind, float(eta_d)),
                LossModel(float(eta_s), float(eta_f)),
            )
            result = optimize_schedule(config, objective, bounds)
            oracle = _dense_bellman_best(config, objective, bounds)
            assert oracle <= result.objective_value + 1e-12


efficiencies = st.floats(0.5, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    t=st.integers(1, 6),
    kind=st.sampled_from([RESOLVED, BUCKET]),
    objective=st.sampled_from(list(Objective)),
    eta_d=efficiencies,
    eta_s=efficiencies,
    eta_f=efficiencies,
    lo=st.floats(1e-3, 1.0),
    span=st.floats(1.5, 1e4),
)
def test_optimize_schedule_properties(t, kind, objective, eta_d, eta_s, eta_f, lo, span):
    bounds = (lo, lo * span)
    template = ProtocolConfig(
        t, ConstantPump(1.0), DetectorModel(kind, eta_d), LossModel(eta_s, eta_f)
    )
    result = optimize_schedule(template, objective, bounds)
    schedule = result.schedule.mean_photon_numbers
    assert len(schedule) == t
    assert all(bounds[0] <= nbar <= bounds[1] for nbar in schedule)
    closed_form = (
        unconditional_fidelity if objective is Objective.UNCONDITIONAL else conditional_fidelity
    )
    config = ProtocolConfig(t, result.schedule, template.detector, template.loss)
    assert result.objective_value == closed_form(config)
    constant = optimize_constant(template, objective, bounds)
    assert result.objective_value >= constant.objective_value - 1e-12


def test_optimize_schedule_is_deterministic():
    config = _bucket_config(3)
    a = optimize_schedule(config, Objective.UNCONDITIONAL)
    b = optimize_schedule(config, Objective.UNCONDITIONAL)
    assert a == b


def test_biased_schedule_pumps_older_bins_harder():
    # loop loss punishes old heralds, so the compensating schedule rises
    # toward the bin that fired first (the highest loop count)
    config = _bucket_config(3)
    result = optimize_schedule(config, Objective.UNCONDITIONAL)
    means = result.schedule.mean_photon_numbers
    assert means[2] > means[1] > means[0]


# (eta_d, eta_s, eta_f, bounds): a lossy train; a blind detector, whose
# stationarity polynomials are all zero; the lossless plateau, where a
# resolved detector's F is 1 at every level; and bounds where the
# coefficients grow huge
_HEAD_CASES = [
    (0.9, 0.95, 0.9, (1e-3, 10.0)),
    (0.0, 0.9, 0.9, (1e-3, 10.0)),
    (1.0, 1.0, 1.0, (1e-3, 10.0)),
    (0.9, 0.95, 0.9, (1e150, 1e160)),
]


@pytest.mark.parametrize("case", _HEAD_CASES, ids=["lossy", "blind", "plateau", "huge-bounds"])
@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_stacked_heads_equal_one_row_calls_bit_for_bit(kind, objective, case):
    eta_d, eta_s, eta_f, bounds = case
    detector, loss = DetectorModel(kind, eta_d), LossModel(eta_s, eta_f)
    lengths = [5, 1, 8, 3, 2, 7, 4, 6]  # heads in any order
    template = ProtocolConfig(8, ConstantPump(1.0), detector, loss)
    for heads, optimize in ((_constant_heads, optimize_constant),
                            (_schedule_heads, optimize_schedule)):
        stacked = heads(template, objective, lengths, bounds)
        for t, result in zip(lengths, stacked):
            config = ProtocolConfig(t, ConstantPump(1.0), detector, loss)
            # repr spells every float exactly, NaN included
            assert repr(result) == repr(optimize(config, objective, bounds)), (optimize, t)


@pytest.mark.parametrize("budget", [8, 100, 3 * 64 * 8])
@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_constant_heads_in_blocks_of_the_cell_budget_equal_one_call(kind, objective, budget,
                                                                     monkeypatch):
    """The stacked constant heads evaluate [heads, levels, t] cells a round
    (fig8 --t 1..300 peaked at 569 MB), so they call the kernel per block
    of heads, and of levels where one head alone exceeds the budget: the
    results stay bit for bit, and no call holds more cells than the budget
    where it holds one train."""
    lengths = [5, 1, 8, 3, 2, 7, 4, 6]
    template = ProtocolConfig(8, ConstantPump(1.0), DetectorModel(kind, 0.9), LossModel(0.95, 0.9))
    whole = _constant_heads(template, objective, lengths)
    kernel, cells = multiplex._closed_form_rows, []

    def counted(*args):
        result = kernel(*args)
        cells.append(max(np.size(field) for field in result))
        return result

    monkeypatch.setattr(analytic, "_KERNEL_CELLS", budget)
    monkeypatch.setattr(multiplex, "_closed_form_rows", counted)
    # repr spells every float exactly
    assert repr(_constant_heads(template, objective, lengths)) == repr(whole)
    assert max(cells) <= budget


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_schedule_evaluations_count_every_candidate_of_every_round(kind, objective, monkeypatch):
    # a lossy train, on which the conditional objective takes several
    # Dinkelbach rounds
    config = ProtocolConfig(6, ConstantPump(1.0), DetectorModel(kind, 0.9), LossModel(0.9, 0.8))
    cells = []

    def counted(nbar, eta_d, rows):
        if np.ndim(nbar):  # not the scalar largest-herald call
            cells.append(int(np.count_nonzero(~np.isnan(nbar))))
        return bin_law(nbar, eta_d, rows)

    bin_law = multiplex._bin_law
    monkeypatch.setattr(multiplex, "_bin_law", counted)
    result = optimize_schedule(config, objective)
    # one candidate evaluation per bin and round
    rounds = len(cells) // config.time_bins
    assert len(cells) == rounds * config.time_bins
    assert rounds > (2 if objective is Objective.CONDITIONAL else 0)
    assert sum(cells) == result.evaluations


def test_stacked_sweep_makes_one_eigenvalue_call_per_bin(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    _schedule_heads(_bucket_config(8), Objective.UNCONDITIONAL, range(1, 9))
    # bin l is shared by the 8 - l heads longer than l
    assert calls == [(8 - loops, 6, 6) for loops in reversed(range(8))]


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_conditional_stack_iterates_each_head_as_its_own_call_does(kind, monkeypatch):
    # each head takes its own number of Dinkelbach rounds; one that left
    # the stack early or stayed too long would change the rows solved
    rows = []

    def counted(a):
        rows.append(a.shape[0])
        return eigvals(a)

    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    detector, loss = DetectorModel(kind, 0.9), LossModel(0.9, 0.8)
    for t in range(1, 9):
        optimize_schedule(ProtocolConfig(t, ConstantPump(1.0), detector, loss),
                          Objective.CONDITIONAL)
    one_head = sum(rows)
    rows.clear()
    _schedule_heads(ProtocolConfig(8, ConstantPump(1.0), detector, loss),
                    Objective.CONDITIONAL, range(1, 9))
    assert sum(rows) == one_head > 2 * sum(range(1, 9))  # several rounds a head


def test_enumeration_oracle_refuses_a_bank_beyond_its_cap():
    # (10 + 1)**6 = 1,771,561 joint outcomes, past the 200,000 cap
    assert m_source_distribution_oracle(0.5, 10, 5).time_bins == 10  # 161,051 outcomes
    with pytest.raises(ValueError, match="enumeration too large"):
        m_source_distribution_oracle(0.5, 10, 6)


@pytest.mark.parametrize("optimize", [optimize_constant, optimize_schedule])
def test_optimizers_refuse_an_objective_given_as_text(optimize):
    with pytest.raises(ValueError, match="objective must be an Objective, got 'conditional'"):
        optimize(_bucket_config(3), "conditional")


def test_schedule_optimizer_builds_the_bin_rows_once(monkeypatch):
    # the sweep and the objective share one build of the train's rows,
    # whatever the train's length
    calls = []

    def counted(*args):
        calls.append(args)
        return bin_rows(*args)

    bin_rows = analytic._bin_rows
    monkeypatch.setattr(analytic, "_bin_rows", counted)
    counts = []
    for t in (2, 50):
        calls.clear()
        optimize_schedule(_bucket_config(t), Objective.CONDITIONAL)
        counts.append(len(calls))
    assert counts == [1, 1]


def _roots_rows(rng):
    """Coefficient rows of degree 6 with zero leading or trailing
    coefficients (which np.roots strips), all-zero and single-term rows,
    and rows with a NaN or an infinity."""
    rows = [rng.normal(size=7) * 10.0 ** rng.integers(-5, 6, size=7) for _ in range(40)]
    for lead, trail in [(1, 0), (2, 0), (0, 1), (0, 3), (1, 2), (3, 3), (6, 0), (0, 6)]:
        for _ in range(3):
            row = rng.normal(size=7)
            row[:lead] = 0.0
            row[7 - trail:] = 0.0
            rows.append(row)
    rows.append(np.zeros(7))
    for bad in (np.nan, np.inf, -np.inf):
        row = rng.normal(size=7)
        row[rng.integers(7)] = bad
        rows.append(row)
    return np.array(rows)[rng.permutation(len(rows))]


@pytest.mark.parametrize("seed", range(4))
def test_root_step_matches_np_roots_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    rows = _roots_rows(rng)
    # a stack of full-degree rows, the mixed stack, and then each row alone
    full = rows[np.isfinite(rows).all(axis=1) & (rows[:, 0] != 0) & (rows[:, -1] != 0)]
    for coefficients in [full, rows] + [rows[i : i + 1] for i in range(len(rows))]:
        roots = _real_roots(coefficients)
        assert roots.shape == (len(coefficients), 6)
        for row, found in zip(coefficients, roots):
            if np.isfinite(row).all():
                expected = np.roots(row).real
                assert np.array_equal(found[: expected.size], expected)
                assert np.isnan(found[expected.size:]).all()
            else:
                assert np.isnan(found).all()
