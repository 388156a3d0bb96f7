import math
import re
import time
import tracemalloc
from pathlib import Path

import exact
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopsource import (
    ClosedForm,
    ConstantPump,
    DetectorKind,
    DetectorModel,
    LossModel,
    PerBinPump,
    ProtocolConfig,
    SourceModel,
    UndefinedConditionalError,
    conditional_fidelity,
    detector_limited_fidelity,
    detector_limited_fidelity_oracle,
    fidelity_after_loops,
    fidelity_after_loops_oracle,
    fidelity_report,
    herald_single_shot,
    herald_single_shot_oracle,
    herald_train,
    large_nbar_asymptote,
    outcome_distribution,
    prep_pmf,
    prep_pmf_oracle,
    unconditional_fidelity,
)
from loopsource.analytic import _SERIES_LIMIT, _bin_law, _bin_rows, _series_length, closed_form
from loopsource.models import thermal_truncation, transmission

RESOLVED = DetectorKind.NUMBER_RESOLVED
BUCKET = DetectorKind.BUCKET
LOSSLESS = LossModel(1.0, 1.0)

# coarse version of the oracle grid; the acceptance suite runs the full one
NBAR_GRID = np.geomspace(0.01, 10.0, 25)
ETA_GRID = (0.3, 0.8, 0.95, 0.99, 1.0)


def _config(kind, nbar, t, eta_d=1.0, eta_s=1.0, eta_f=1.0):
    return ProtocolConfig(
        t, ConstantPump(nbar), DetectorModel(kind, eta_d), LossModel(eta_s, eta_f)
    )


def test_single_shot_unit_efficiency_values():
    source = SourceModel(1.0)
    assert herald_single_shot(source, DetectorModel(RESOLVED, 1.0)) == pytest.approx(0.25)
    assert herald_single_shot(source, DetectorModel(BUCKET, 1.0)) == pytest.approx(0.5)


def test_single_shot_closed_forms():
    # x/(1+x)^2 and x/(1+x) with x = nbar * eta_d
    for nbar in (0.05, 0.7, 3.0):
        for eta in (0.4, 0.9, 1.0):
            x = nbar * eta
            source = SourceModel(nbar)
            assert herald_single_shot(source, DetectorModel(RESOLVED, eta)) == pytest.approx(
                x / (1.0 + x) ** 2, rel=1e-14
            )
            assert herald_single_shot(source, DetectorModel(BUCKET, eta)) == pytest.approx(
                x / (1.0 + x), rel=1e-14
            )


def test_single_shot_vacuum_is_zero():
    source = SourceModel(0.0)
    assert herald_single_shot(source, DetectorModel(RESOLVED, 0.9)) == 0.0
    assert herald_single_shot(source, DetectorModel(BUCKET, 0.9)) == 0.0


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("eta", ETA_GRID)
def test_single_shot_matches_series_oracle(kind, eta):
    for nbar in NBAR_GRID:
        source = SourceModel(float(nbar))
        det = DetectorModel(kind, eta)
        closed = herald_single_shot(source, det)
        series = herald_single_shot_oracle(source, det)
        assert closed == pytest.approx(series, rel=1e-10)


def test_resolved_single_shot_maximized_at_unit_click_rate():
    """x/(1+x)^2 peaks at x = nbar * eta_d = 1, value 1/4."""
    det = DetectorModel(RESOLVED, 0.5)
    peak = herald_single_shot(SourceModel(2.0), det)
    assert peak == pytest.approx(0.25, rel=1e-14)
    for nbar in (0.5, 1.0, 1.9, 2.1, 4.0, 10.0):
        assert herald_single_shot(SourceModel(nbar), det) <= peak + 1e-15


def test_bucket_dominates_resolved_single_shot():
    for nbar in NBAR_GRID:
        for eta in ETA_GRID:
            source = SourceModel(float(nbar))
            assert herald_single_shot(source, DetectorModel(BUCKET, eta)) >= herald_single_shot(
                source, DetectorModel(RESOLVED, eta)
            )


def test_herald_train_geometric():
    source = SourceModel(1.0)
    bucket = DetectorModel(BUCKET, 1.0)
    resolved = DetectorModel(RESOLVED, 1.0)
    assert herald_train(source, bucket, 2) == pytest.approx(0.75)
    assert herald_train(source, bucket, 4) == pytest.approx(0.9375)
    assert herald_train(source, resolved, 2) == pytest.approx(0.4375)
    for t in range(1, 9):
        assert herald_train(source, bucket, t) == pytest.approx(1.0 - 2.0**-t, rel=1e-14)


def test_herald_train_strictly_increasing_in_t():
    source = SourceModel(0.4)
    det = DetectorModel(BUCKET, 0.8)
    values = [herald_train(source, det, t) for t in range(1, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("eta", [0.3, 0.8, 1.0])
def test_prep_pmf_matches_series_and_normalizes(kind, eta):
    for nbar in (0.05, 0.5, 2.0, 8.0):
        source = SourceModel(nbar)
        det = DetectorModel(kind, eta)
        total = math.fsum(prep_pmf(source, det, n) for n in range(1, 400))
        assert total == pytest.approx(1.0, abs=1e-10)
        for n in (1, 2, 3, 7):
            assert prep_pmf(source, det, n) == pytest.approx(
                prep_pmf_oracle(source, det, n), rel=1e-10
            )


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("eta", [1e-12, 1e-9, 1e-6])
def test_series_oracles_agree_at_tiny_detector_efficiency(kind, eta):
    # the oracles' bucket click was 1 - (1 - eta)**n, which cancels here:
    # 2.2e-5 relative off the closed form at eta 1e-12
    det = DetectorModel(kind, eta)
    for nbar in (1e-4, 0.1, 1.0, 10.0):
        source = SourceModel(nbar)
        # abs=0: the herald probabilities reach 1e-16, below approx's default
        # absolute tolerance of 1e-12
        assert herald_single_shot_oracle(source, det) == pytest.approx(
            herald_single_shot(source, det), rel=1e-10, abs=0.0
        )
        assert detector_limited_fidelity_oracle(source, det) == pytest.approx(
            detector_limited_fidelity(source, det), rel=1e-10, abs=0.0
        )


def test_series_oracles_run_in_bounded_memory():
    # at nbar 1e5 the series runs to 2.8e6 photon numbers; summed in one
    # slice the peak was 84 MiB, and at 1e8 the call raised MemoryError
    source, det = SourceModel(1e5), DetectorModel(BUCKET, 0.9)
    runs = [(herald_single_shot_oracle, herald_single_shot),
            (detector_limited_fidelity_oracle, detector_limited_fidelity)]
    for oracle, closed in runs:
        tracemalloc.start()
        try:
            value = oracle(source, det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, oracle.__name__
        assert value == pytest.approx(closed(source, det), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("nbar", [1e3, 1e5])
def test_herald_oracle_agrees_to_the_truncation_tail_at_large_pump(nbar):
    # the thermal term was the rounded ratio nbar/(nbar + 1) raised to the
    # n-th power, whose error grows like n ulps: 4.5e-12 relative at 1e5
    source, det = SourceModel(nbar), DetectorModel(BUCKET, 0.9)
    assert herald_single_shot_oracle(source, det) == pytest.approx(
        herald_single_shot(source, det), rel=2e-12, abs=0.0
    )


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("nbar", [1e100, 1e160, 1e300])
@pytest.mark.parametrize("eta", [0.9, 1e-6])
def test_prep_pmf_is_exact_at_huge_pump(kind, nbar, eta):
    # (1 + nbar)**2 on Python floats raised OverflowError above ~1.3e154;
    # at eta 1e-6 the bucket click cancelled, and at 1e300 an intermediate
    # product was subnormal
    for k in (1, 2, 3):
        reference = exact.prep_pmf(nbar, eta, k, kind)
        assert exact.is_normal(reference)
        assert exact.within_ulps(prep_pmf(SourceModel(nbar), DetectorModel(kind, eta), k),
                                 reference), k


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_prep_pmf_error_does_not_grow_with_photon_number(kind, eta):
    # the thermal factor was the rounded ratio nbar/(1 + nbar) raised to the
    # power n - 1, whose error grows like n ulps: 1.3e-13 at n = 1000
    checked = 0
    for nbar in (1.0, 10.0, 1e3, 1e6):
        det = DetectorModel(kind, eta)
        for k in (1, 2, 10, 100, 1000):
            reference = exact.prep_pmf(nbar, eta, k, kind)
            if reference == 0 or not exact.is_normal(reference):
                continue
            checked += 1
            assert exact.within_rel(prep_pmf(SourceModel(nbar), det, k), reference, 2e-14), \
                (nbar, k)
    assert checked >= 14


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_per_bin_closed_forms_are_defined_where_the_herald_probability_underflows(kind):
    # S = x/(1 + x)**(j-1) rounds to 0 at x = 1e-400, though it is not 0; the
    # per-bin closed forms raised there as if nothing could herald
    source, det = SourceModel(1e-200), DetectorModel(kind, 1e-200)
    assert herald_single_shot(source, det) == 0.0
    loss = LossModel(0.9, 0.95)
    assert exact.within_ulps(fidelity_after_loops(source, det, loss, 2),
                             exact.bin_law(1e-200, 1e-200, transmission(loss, 2), kind)[1])
    assert exact.within_ulps(detector_limited_fidelity(source, det),
                             exact.bin_law(1e-200, 1e-200, 1.0, kind)[1])
    assert prep_pmf(source, det, 1) == 1.0
    # the series oracles divide by their rounded sum, so they still raise
    for oracle in (detector_limited_fidelity_oracle, lambda s, d: prep_pmf_oracle(s, d, 1),
                   lambda s, d: fidelity_after_loops_oracle(s, d, loss, 2)):
        with pytest.raises(UndefinedConditionalError):
            oracle(source, det)


@pytest.mark.parametrize("nbar", [1e9, 4e15, 1.7e308])
def test_series_oracles_refuse_series_beyond_the_domain(nbar):
    # the series runs to ~27.6 nbar photon numbers: 2.8e10 at 1e9, hours of work
    source, det = SourceModel(nbar), DetectorModel(BUCKET, 0.9)
    runs = [lambda: herald_single_shot_oracle(source, det),
            lambda: fidelity_after_loops_oracle(source, det, LossModel(0.9, 0.95), 2)]
    for run in runs:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1e[+]?08") as raised:
            run()
        assert time.perf_counter() - start < 1.0
        assert not isinstance(raised.value, UndefinedConditionalError)
        assert f"{nbar}" in str(raised.value)
        assert len(str(raised.value)) < 200  # the length to a few digits


def test_series_oracles_admit_the_series_at_the_top_of_the_domain():
    # only the length is checked: the series itself takes a minute or more
    assert _series_length(SourceModel(1e8)) == _SERIES_LIMIT
    assert _SERIES_LIMIT == thermal_truncation(SourceModel(1e8))
    with pytest.raises(ValueError):
        _series_length(SourceModel(1.0000001e8))


def test_prep_pmf_perfect_resolved_is_single_photon():
    source = SourceModel(1.3)
    det = DetectorModel(RESOLVED, 1.0)
    assert prep_pmf(source, det, 1) == pytest.approx(1.0, rel=1e-14)
    assert prep_pmf(source, det, 2) == 0.0


def test_prep_pmf_domain_starts_at_one_photon():
    with pytest.raises(ValueError):
        prep_pmf(SourceModel(0.8), DetectorModel(BUCKET, 0.7), 0)


def test_prep_pmf_undefined_for_vacuum():
    with pytest.raises(UndefinedConditionalError):
        prep_pmf(SourceModel(0.0), DetectorModel(BUCKET, 0.9), 1)


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_fidelity_after_loops_matches_series(kind):
    loss = LossModel(0.9, 0.95)
    for nbar in (0.05, 0.5, 2.0):
        for eta in (0.8, 0.95, 1.0):
            for loops in (0, 1, 4):
                source = SourceModel(nbar)
                det = DetectorModel(kind, eta)
                assert fidelity_after_loops(source, det, loss, loops) == pytest.approx(
                    fidelity_after_loops_oracle(source, det, loss, loops), rel=1e-10
                )


def test_fidelity_after_loops_resolved_decreasing_when_detector_good():
    """Later heralds see more loop loss; with a decent detector that is
    strictly worse for the number-resolved kind.  Low detector efficiency
    breaks this (multi-photon heralds benefit from extra thinning), so we
    assert only above eta_d = 0.75."""
    for nbar in np.geomspace(0.01, 10.0, 15):
        for eta_d in (0.75, 0.9, 1.0):
            for loss in (LossModel(0.9, 0.95), LossModel(0.8, 0.8)):
                values = [
                    fidelity_after_loops(
                        SourceModel(float(nbar)), DetectorModel(RESOLVED, eta_d), loss, l
                    )
                    for l in range(6)
                ]
                assert all(b < a for a, b in zip(values, values[1:]))


def test_fidelity_after_loops_low_efficiency_counterexample():
    # the decreasing property genuinely fails here; pin the behaviour
    det = DetectorModel(RESOLVED, 0.3)
    loss = LossModel(0.9, 0.95)
    first = fidelity_after_loops(SourceModel(10.0), det, loss, 0)
    second = fidelity_after_loops(SourceModel(10.0), det, loss, 1)
    assert second > first


def test_detector_limited_values_and_oracle():
    source = SourceModel(1.0)
    assert detector_limited_fidelity(source, DetectorModel(RESOLVED, 0.5)) == pytest.approx(0.5625)
    assert detector_limited_fidelity(source, DetectorModel(BUCKET, 1.0)) == pytest.approx(0.5)
    for kind in (RESOLVED, BUCKET):
        for eta in (0.3, 0.9, 1.0):
            det = DetectorModel(kind, eta)
            assert detector_limited_fidelity(source, det) == pytest.approx(
                detector_limited_fidelity_oracle(source, det), rel=1e-10
            )


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("nbar, eta_d", [(0.5, 0.0), (0.0, 0.5)], ids=["blind", "vacuum"])
def test_detector_limited_fidelity_is_undefined_where_nothing_heralds(kind, nbar, eta_d):
    # it returned 4/9 for a blind bucket detector at nbar 0.5, where its oracle raises
    source, det = SourceModel(nbar), DetectorModel(kind, eta_d)
    for fidelity in (detector_limited_fidelity, detector_limited_fidelity_oracle,
                     lambda s, d: fidelity_after_loops(s, d, LossModel(0.9, 0.95), 2),
                     lambda s, d: prep_pmf(s, d, 1)):
        with pytest.raises(UndefinedConditionalError):
            fidelity(source, det)


def test_detector_limited_equals_lossless_conditional_any_t():
    source = SourceModel(1.0)
    det = DetectorModel(RESOLVED, 0.5)
    reference = detector_limited_fidelity(source, det)
    for t in (1, 5, 12):
        config = _config(RESOLVED, 1.0, t, eta_d=0.5)
        assert conditional_fidelity(config) == pytest.approx(reference, abs=1e-13)


@pytest.mark.parametrize("nbar", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("t", [1, 3, 17])
def test_perfect_efficiency_limits(nbar, t):
    resolved = _config(RESOLVED, nbar, t)
    bucket = _config(BUCKET, nbar, t)
    assert abs(conditional_fidelity(resolved) - 1.0) < 1e-12
    assert abs(conditional_fidelity(bucket) - 1.0 / (1.0 + nbar)) < 1e-12


def test_outcome_distribution_values():
    dist = outcome_distribution(_config(BUCKET, 1.0, 2))
    assert dist.probabilities == pytest.approx([0.5, 0.25, 0.25])
    assert dist.herald_probability == pytest.approx(0.75)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 4: each bin's S + (1 - S) misses 1 by a sub-ulp "
                   "residual, and 30000 constant bins add it up past the 1e-12 check")
def test_outcome_distribution_normalises_on_a_long_rare_herald_train():
    config = ProtocolConfig(30000, ConstantPump(1e-6), DetectorModel(BUCKET, 0.1),
                            LossModel(0.9, 0.99))
    dist = outcome_distribution(config)  # raises: the sum reads 0.9999999999980206
    assert abs(math.fsum(dist.probabilities) - 1.0) <= 1e-12


def test_outcome_distribution_per_bin_schedule_sums_to_one():
    pump = PerBinPump((0.3, 0.0, 1.7, 0.9))
    config = ProtocolConfig(4, pump, DetectorModel(BUCKET, 0.8), LossModel(0.9, 0.95))
    dist = outcome_distribution(config)
    assert abs(math.fsum(dist.probabilities) - 1.0) <= 1e-12
    # the vacuum bin can never herald
    assert dist.probabilities[1] == 0.0


def test_outcome_distribution_matches_train_probability():
    for t in (1, 4, 9):
        config = _config(BUCKET, 0.6, t, eta_d=0.85)
        dist = outcome_distribution(config)
        train = herald_train(SourceModel(0.6), DetectorModel(BUCKET, 0.85), t)
        assert dist.herald_probability == pytest.approx(train, rel=1e-12)


@pytest.mark.parametrize("t", [1, 5, 50])
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_product_identity_unconditional_equals_train_times_conditional(t, kind):
    for nbar in (0.05, 0.7, 4.0):
        for eta in (0.8, 1.0):
            config = ProtocolConfig(
                t, ConstantPump(nbar), DetectorModel(kind, eta), LossModel(0.92, 0.97)
            )
            report = fidelity_report(config)
            train = outcome_distribution(config).herald_probability
            assert abs(report.unconditional - train * report.conditional) < 1e-12


def test_conditional_with_rare_heralds_matches_series():
    """At S ~ 6e-16 per bin, 1 - prod(1 - S) keeps one significant digit
    and read the conditional fidelity as 1.0448; the summed weights do
    not cancel."""
    source = SourceModel(5.8e-7)
    det = DetectorModel(RESOLVED, 1e-9)
    t = 50
    conditional = conditional_fidelity(ProtocolConfig(t, ConstantPump(5.8e-7), det, LOSSLESS))
    single = herald_single_shot_oracle(source, det)
    weights = [single * (1.0 - single) ** loops for loops in range(t)]
    series = math.fsum(
        w * fidelity_after_loops_oracle(source, det, LOSSLESS, loops)
        for loops, w in enumerate(weights)
    ) / math.fsum(weights)
    assert conditional <= 1.0
    assert conditional == pytest.approx(series, rel=1e-9)


@pytest.mark.parametrize("t", [4, 7, 20])
def test_lossless_resolved_conditional_at_low_pump_stays_below_one(t):
    # F = 1 in every bin; the product form read 1.00000000000005 here
    assert conditional_fidelity(_config(RESOLVED, 1e-3, t)) <= 1.0


def test_herald_probability_stays_at_most_one_when_heralds_are_near_certain():
    # the 40 summed weights round to 1.0000000000000002 here
    source = SourceModel(2.0084866607641954)
    config = _config(BUCKET, source.mean_photon_number, 40, eta_d=0.95, eta_s=0.95, eta_f=0.95)
    assert herald_train(source, config.detector, 40) == 1.0
    assert outcome_distribution(config).herald_probability == 1.0
    assert 0.0 <= conditional_fidelity(config) <= 1.0


@pytest.mark.parametrize("nbar", [1e4, 1e6, 1e8])
def test_bucket_law_keeps_relative_precision_when_heralds_are_near_certain(nbar):
    # exact rational arithmetic on the same input doubles; a miss
    # probability formed as 1 - S was off by up to 1.2e-8 relative here
    eta_d, t = 0.9, 3
    single = exact.bin_law(nbar, eta_d, 1.0, BUCKET)[0]
    fast = outcome_distribution(_config(BUCKET, nbar, t, eta_d=eta_d)).probabilities
    for value, reference in zip(fast, exact.outcome_distribution([single] * t)):
        assert exact.within_rel(value, reference, 1e-15)


# nbar 0 and 1e-300..1.7e308, efficiencies at the edges of [0, 1] and
# inside it, plus seeded draws; resolved nbar 1e8 at eta_d = tau = 1e-9
# is where a direct 1 + n - n (1 - eta_d)(1 - tau) cancels
_EXACT_NBARS = [0.0, 1e-300, 1e-100, 1e-9, 1e-3, 0.5, 1.0, 7.3, 1e3, 1e8,
                1e50, 1e80, 1e103, 1.3e154, 1e200, 1e300, 1.7e308]
_EXACT_EFFICIENCIES = [0.0, 1e-9, 1e-6, 0.5, 0.9, 1.0]


def _exact_grid():
    rng = np.random.default_rng(2015)
    nbars = _EXACT_NBARS + (10.0 ** rng.uniform(-300.0, 308.0, 8)).tolist()
    etas = _EXACT_EFFICIENCIES + rng.uniform(0.0, 1.0, 3).tolist()
    taus = _EXACT_EFFICIENCIES + rng.uniform(0.0, 1.0, 3).tolist()
    return nbars, etas, taus


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_per_bin_law_matches_exact_rationals_over_the_domain(kind):
    nbars, etas, taus = _exact_grid()
    # axes nbar, eta_d, tau, and a train of one bin
    n = np.array(nbars)[:, None, None, None]
    eta = np.array(etas)[None, :, None, None]
    tau = np.array(taus)[None, None, :, None]
    single, miss, fidelity = np.broadcast_arrays(*_bin_law(n, eta, _bin_rows(eta, tau, kind)))
    result = closed_form(n, eta, tau, kind)
    assert np.isfinite(fidelity).all() and np.isfinite(result.unconditional).all()
    assert ((0.0 <= fidelity) & (fidelity <= 1.0)).all()
    assert ((0.0 <= single) & (single <= 1.0)).all()
    for (i, j, k, _), f in np.ndenumerate(fidelity):
        exact_single, exact_fidelity, exact_product = exact.bin_law(
            nbars[i], etas[j], taus[k], kind)
        if taus[k] == 0.0:
            assert f == 0.0
        for value, reference in ((f, exact_fidelity), (single[i, j, k, 0], exact_single),
                                 (miss[i, j, k, 0], 1 - exact_single),
                                 (result.unconditional[i, j, k], exact_product)):
            if exact.is_normal(reference):
                assert exact.within_ulps(value, reference), (nbars[i], etas[j], taus[k])


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_lossless_resolved_plateau_is_exactly_one(kind):
    nbars = np.array(_EXACT_NBARS + np.geomspace(1e-8, 1e8, 200).tolist())
    fidelity = _bin_law(nbars, 1.0, _bin_rows(1.0, 1.0, kind))[2]
    if kind is RESOLVED:
        assert (fidelity == 1.0).all()
    else:
        # F = 1/(1 + n): the herald lets two-photon events through
        assert (fidelity <= 1.0).all()


_TRAIN_FIELDS = ("single_shot", "weights", "survival", "per_loop",
                 "no_herald", "herald", "unconditional", "conditional")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    longest=st.integers(1, 300),
    fraction=st.floats(0.0, 1.0),
    kind=st.sampled_from([RESOLVED, BUCKET]),
    seed=st.integers(0, 2**32 - 1),
)
@example(longest=9, fraction=7 / 9, kind=RESOLVED, seed=1)
@example(longest=9, fraction=8 / 9, kind=BUCKET, seed=2)
@example(longest=300, fraction=0.03, kind=BUCKET, seed=3)
@example(longest=300, fraction=0.43, kind=RESOLVED, seed=4)
def test_head_is_the_closed_form_of_the_shorter_train_bit_for_bit(longest, fraction, kind, seed):
    # heads shorter and longer than 8 and 128, where numpy's pairwise sum
    # starts to unroll and to split; axes eta, nbar row, loop
    t = max(1, round(fraction * longest))
    rng = np.random.default_rng(seed)
    etas = np.array([1.0, 0.99, 0.95, 0.5, 1e-9])
    nbars = 10.0 ** rng.uniform(-4.0, 2.0, (1, 3, longest))
    taus = np.stack([transmission(LossModel(eta, eta), np.arange(longest)) for eta in etas])
    result = closed_form(nbars, etas[:, None, None], taus[:, None, :], kind)
    head = ClosedForm(*(field[..., :t] for field in result))
    fresh = closed_form(nbars[..., :t], etas[:, None, None], taus[:, None, :t], kind)
    for name in _TRAIN_FIELDS:
        np.testing.assert_array_equal(getattr(head, name), getattr(fresh, name),
                                      strict=True, err_msg=name)


_FIVE_BIN_TAUS = transmission(LossModel(0.9, 0.9), np.arange(5))


@pytest.mark.parametrize("nbars, taus, match", [
    (np.array([0.5]), _FIVE_BIN_TAUS, "train axis of length 5"),
    (np.array(0.5), _FIVE_BIN_TAUS, "train axis of length 5"),
    (np.full((5, 1), 0.5), _FIVE_BIN_TAUS, "train axis of length 5"),
    (0.5, 1.0, "no input has one"),
], ids=["one-bin", "scalar", "column", "all-scalar"])
def test_closed_form_rejects_a_pump_without_the_train_axis(nbars, taus, match):
    # a one-bin pump against a five-bin loss chain returned one weight and
    # five per-loop fidelities: herald 0.310 where the five-bin train reads
    # 0.844; with no train axis anywhere the train raised numpy's IndexError
    with pytest.raises(ValueError, match=match):
        closed_form(nbars, 0.9, taus, BUCKET)


def test_closed_form_rejects_a_kind_that_is_not_a_detector_kind():
    # the string read as number-resolved: herald 0.514, where the bucket
    # detector reads 0.672
    with pytest.raises(ValueError, match="kind must be a DetectorKind, got 'bucket'"):
        closed_form(np.full(3, 0.5), 0.9, 0.9, "bucket")


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
def test_by_length_reads_each_head_bit_for_bit(kind, batched):
    # lengths on both sides of 8 and 128, where numpy's pairwise sum starts
    # to unroll and to split; axes eta, nbar row, loop, and one row pumps
    # nothing, so its weights sum to 0
    ts = [1, 7, 8, 9, 127, 128, 129, 300]
    rng = np.random.default_rng(16)
    etas = np.array([1.0, 0.99, 0.95, 0.5, 1e-9])
    nbars = 10.0 ** rng.uniform(-4.0, 2.0, (1, 3, ts[-1]))
    nbars[0, 0] = 0.0
    taus = np.stack([transmission(LossModel(eta, eta), np.arange(ts[-1])) for eta in etas])
    etas, taus = etas[:, None, None], taus[:, None, :]
    if not batched:
        nbars, etas, taus = nbars[0, 1], 0.95, taus[2, 0]
    result = closed_form(nbars, etas, taus, kind)
    series = dict(zip(("herald", "unconditional", "conditional"), result.by_length(ts)))
    for name, values in series.items():
        assert values.shape == (len(ts),) + result.herald.shape, name
        for t, value in zip(ts, values):
            fresh = closed_form(nbars[..., :t], etas, taus[..., :t], kind)
            np.testing.assert_array_equal(value, getattr(fresh, name), strict=True,
                                          err_msg=f"{name} t={t}")


def test_conditional_stays_at_most_one_on_the_domain_grid():
    # dividing by the herald sum capped at 1 read up to 1 + 6.7e-16 here,
    # in 5 cells at resolved, lossless, t = 1000
    nbars = np.geomspace(1e-8, 1e8, 100)
    etas = np.array([1e-9, 0.5, 0.95, 1.0])
    for kind in (RESOLVED, BUCKET):
        for t in (1, 4, 20, 100, 1000):
            taus = np.stack([transmission(LossModel(eta, eta), np.arange(t)) for eta in etas])
            pumps = np.repeat(nbars[:, None], t, axis=1)
            result = closed_form(pumps, etas[:, None, None], taus[:, None, :], kind)
            assert (result.conditional <= 1.0).all(), (kind, t)
            assert (result.herald <= 1.0).all(), (kind, t)


@pytest.mark.parametrize("time_bins", [True, 2.5, 0])
def test_herald_train_length_must_be_a_positive_int(time_bins):
    with pytest.raises(ValueError, match="time_bins must be a positive integer"):
        herald_train(SourceModel(0.5), DetectorModel(BUCKET, 0.9), time_bins)


def test_herald_probability_is_shared_by_every_reader():
    config = _config(BUCKET, 1e-3, 9, eta_d=0.7, eta_s=0.9, eta_f=0.95)
    report = fidelity_report(config)
    train = herald_train(SourceModel(1e-3), config.detector, 9)
    assert outcome_distribution(config).herald_probability == train
    assert report.herald_probability == train
    assert report.conditional == report.unconditional / train


def test_conditional_dominates_unconditional():
    config = _config(BUCKET, 0.8, 6, eta_d=0.9, eta_s=0.9, eta_f=0.95)
    report = fidelity_report(config)
    assert report.conditional >= report.unconditional


def test_resolved_dominates_bucket_conditional_without_loop_loss():
    for nbar in NBAR_GRID:
        for eta in ETA_GRID:
            for t in (1, 5):
                resolved = _config(RESOLVED, float(nbar), t, eta_d=eta)
                bucket = _config(BUCKET, float(nbar), t, eta_d=eta)
                assert conditional_fidelity(resolved) >= conditional_fidelity(bucket) - 1e-14


def test_fidelity_report_is_consistent():
    config = ProtocolConfig(
        4, ConstantPump(0.9), DetectorModel(BUCKET, 0.85), LossModel(0.9, 0.95)
    )
    report = fidelity_report(config)
    dist = outcome_distribution(config)
    recombined = math.fsum(
        p * f for p, f in zip(dist.probabilities[:-1], report.per_loop)
    )
    assert report.unconditional == pytest.approx(recombined, rel=1e-12)
    assert report.conditional == pytest.approx(conditional_fidelity(config), rel=1e-14)
    assert report.unconditional == pytest.approx(unconditional_fidelity(config), rel=1e-14)
    assert len(report.per_loop) == 4


def test_per_loop_entry_zero_for_vacuum_bin():
    pump = PerBinPump((0.5, 0.0, 0.5))
    config = ProtocolConfig(3, pump, DetectorModel(BUCKET, 0.9), LossModel(0.9, 0.95))
    report = fidelity_report(config)
    assert report.per_loop[1] == 0.0
    assert report.per_loop[0] > 0.0


def test_conditional_undefined_when_nothing_heralds():
    config = _config(BUCKET, 0.0, 3)
    with pytest.raises(UndefinedConditionalError):
        conditional_fidelity(config)
    with pytest.raises(UndefinedConditionalError):
        fidelity_report(config)
    # the unconditional average is still fine: it is zero
    assert unconditional_fidelity(config) == 0.0


def test_asymptote_formula_and_validation():
    assert large_nbar_asymptote(0.95, 100.0) == pytest.approx(0.95**2 / 100.0)
    with pytest.raises(ValueError):
        large_nbar_asymptote(1.2, 10.0)
    with pytest.raises(ValueError):
        large_nbar_asymptote(0.9, 0.0)
    with pytest.raises(ValueError, match="nbar must be > 0, got nan"):
        large_nbar_asymptote(0.9, math.nan)


def test_asymptote_tracks_bucket_fidelity_at_high_pump():
    # 10% agreement at nbar = 50; see the README note on the accuracy of
    # this scaling, which this package reports as-is
    eta = 0.95
    config = ProtocolConfig(
        1, ConstantPump(50.0), DetectorModel(BUCKET, eta), LossModel(eta, eta)
    )
    reference = large_nbar_asymptote(eta, 50.0)
    assert unconditional_fidelity(config) == pytest.approx(reference, rel=0.10)


def test_unconditional_approaches_conditional_at_large_t():
    nbar = 0.8
    small = _config(BUCKET, nbar, 2, eta_d=0.9)
    large = _config(BUCKET, nbar, 60, eta_d=0.9)
    gap_small = conditional_fidelity(small) - unconditional_fidelity(small)
    gap_large = conditional_fidelity(large) - unconditional_fidelity(large)
    assert gap_large < gap_small
    assert gap_large < 1e-3


def test_readme_quick_start_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme.read_text(), re.S)
    exec(block.group(1), {})
    herald, unconditional, conditional = map(float, capsys.readouterr().out.split()[:3])
    assert unconditional == pytest.approx(herald * conditional, rel=1e-12)
