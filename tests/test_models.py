import math
import sys
from fractions import Fraction

import exact
import numpy as np
import pytest

from loopsource import (
    ConstantPump,
    DetectorKind,
    DetectorModel,
    LossModel,
    OutcomeDistribution,
    PerBinPump,
    ProtocolConfig,
    SourceModel,
    fidelity_after_loops,
    m_source_distribution,
    prep_pmf,
    prep_pmf_oracle,
    thermal_pmf,
    thermal_truncation,
    transmission,
)
from loopsource.cli import assess_feasibility
from loopsource.models import (
    TAIL_MASS,
    TRUNCATION_FLOOR,
    DetectorOutcome,
    _thermal_rate,
    detect_prob,
    herald_outcome,
)

RESOLVED = DetectorKind.NUMBER_RESOLVED
BUCKET = DetectorKind.BUCKET


def test_thermal_pmf_geometric_values():
    source = SourceModel(1.0)
    assert thermal_pmf(source, 0) == 0.5
    assert thermal_pmf(source, 1) == 0.25
    assert thermal_pmf(source, 2) == 0.125


def test_thermal_pmf_vacuum_source():
    source = SourceModel(0.0)
    assert thermal_pmf(source, 0) == 1.0
    assert thermal_pmf(source, 1) == 0.0
    assert thermal_pmf(source, 5) == 0.0


@pytest.mark.parametrize("nbar", [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0])
def test_truncation_captures_required_mass(nbar):
    source = SourceModel(nbar)
    n_max = thermal_truncation(source)
    mass = math.fsum(thermal_pmf(source, n) for n in range(n_max + 1))
    assert mass >= 1.0 - 1e-12


def test_truncation_floor_and_growth():
    assert thermal_truncation(SourceModel(0.0)) == 64
    assert thermal_truncation(SourceModel(1.0)) == 64
    # brute-force smallest n with cumulative mass >= 1 - 1e-12 for nbar=10
    source = SourceModel(10.0)
    running = 0.0
    for n in range(10_000):
        running += thermal_pmf(source, n)
        if running >= 1.0 - 1e-12:
            break
    assert thermal_truncation(source) == max(64, n)
    assert thermal_truncation(source) == 289


@pytest.mark.parametrize("nbar", [7e306, 1.7e308, sys.float_info.max])
def test_truncation_is_an_int_where_its_length_overflows_a_float(nbar):
    # -log(TAIL_MASS) / rate overflows a float above nbar ~6.5e306, inside
    # the range SourceModel accepts
    length = thermal_truncation(SourceModel(nbar))
    assert type(length) is int
    assert float(Fraction(length) / Fraction(nbar)) == pytest.approx(-math.log(TAIL_MASS))
    assert length > thermal_truncation(SourceModel(6e306))


def test_truncation_is_the_ceiling_of_the_float_quotient_below_the_overflow():
    # where the quotient is a finite float, the length is its ceiling
    nbars = np.concatenate([[0.0, 5e-324, 0.5], np.geomspace(1e-300, 6e306, 997)])
    for nbar in nbars.tolist():
        rate = float(_thermal_rate(nbar))
        expected = max(TRUNCATION_FLOOR, math.ceil(math.log(TAIL_MASS) / -rate) - 1)
        assert thermal_truncation(SourceModel(nbar)) == expected, nbar


def test_detect_prob_number_resolved_values():
    det = DetectorModel(RESOLVED, 0.8)
    assert detect_prob(det, DetectorOutcome.ONE, 1) == pytest.approx(0.8)
    assert detect_prob(det, DetectorOutcome.ONE, 2) == pytest.approx(0.32)
    assert detect_prob(det, DetectorOutcome.ZERO, 2) == pytest.approx(0.04)
    assert detect_prob(det, DetectorOutcome.ONE, 0) == 0.0


def test_detect_prob_bucket_values():
    det = DetectorModel(BUCKET, 0.8)
    assert detect_prob(det, DetectorOutcome.CLICK, 2) == pytest.approx(0.96)
    assert detect_prob(det, DetectorOutcome.NO_CLICK, 2) == pytest.approx(0.04)
    assert detect_prob(det, DetectorOutcome.CLICK, 0) == 0.0


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.8, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 40])
def test_detect_prob_bounds_and_bucket_sum(eta, n):
    bucket = DetectorModel(BUCKET, eta)
    resolved = DetectorModel(RESOLVED, eta)
    click = detect_prob(bucket, DetectorOutcome.CLICK, n)
    no_click = detect_prob(bucket, DetectorOutcome.NO_CLICK, n)
    assert 0.0 <= click <= 1.0
    assert 0.0 <= no_click <= 1.0
    # complement construction makes the bucket pair sum exact, not approximate
    assert click + no_click == 1.0
    for outcome in (DetectorOutcome.ZERO, DetectorOutcome.ONE):
        assert 0.0 <= detect_prob(resolved, outcome, n) <= 1.0


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("eta", [1e-300, 1e-12, 1e-9, 1.0])
def test_detect_prob_matches_exact_herald_law(kind, eta):
    # the bucket click was 1 - (1 - eta)**n, 8.9e-5 relative off at eta 1e-12
    det = DetectorModel(kind, eta)
    outcome = herald_outcome(kind)
    for n in range(60):
        reference = exact.herald_given_n(eta, n, kind)
        assert exact.within_ulps(detect_prob(det, outcome, n), reference, 4)


@pytest.mark.parametrize("kind", [RESOLVED, BUCKET])
@pytest.mark.parametrize("eta", [0.0, 1e-12, 0.3, 0.999, 1.0])
def test_array_calls_equal_scalar_calls_bit_for_bit(kind, eta):
    n = np.arange(300)
    det = DetectorModel(kind, eta)
    if kind is RESOLVED:
        outcomes = (DetectorOutcome.ZERO, DetectorOutcome.ONE)
    else:
        outcomes = (DetectorOutcome.NO_CLICK, DetectorOutcome.CLICK)
    for outcome in outcomes:
        scalars = [detect_prob(det, outcome, k) for k in n.tolist()]
        assert detect_prob(det, outcome, n).tobytes() == np.array(scalars).tobytes()
    for nbar in (0.0, 1e-4, 0.5, 3.0, 1e8):
        source = SourceModel(nbar)
        scalars = [thermal_pmf(source, k) for k in n.tolist()]
        assert thermal_pmf(source, n).tobytes() == np.array(scalars).tobytes()
        if 0.0 < nbar <= 3.0 and eta > 0.0:  # the series at 1e8 runs to 2.8e9 terms
            scalars = [prep_pmf_oracle(source, det, k) for k in n[1:].tolist()]
            assert prep_pmf_oracle(source, det, n[1:]).tobytes() == np.array(scalars).tobytes()


def test_detect_prob_rejects_foreign_outcomes():
    with pytest.raises(ValueError):
        detect_prob(DetectorModel(RESOLVED, 0.5), DetectorOutcome.CLICK, 1)
    with pytest.raises(ValueError):
        detect_prob(DetectorModel(BUCKET, 0.5), DetectorOutcome.ONE, 1)
    with pytest.raises(ValueError):
        detect_prob(DetectorModel(BUCKET, 0.5), DetectorOutcome.CLICK, -1)


def test_herald_outcome_per_kind():
    assert herald_outcome(RESOLVED) is DetectorOutcome.ONE
    assert herald_outcome(BUCKET) is DetectorOutcome.CLICK


def test_transmission_chain():
    loss = LossModel(0.8, 1.0)
    assert transmission(loss, 0) == pytest.approx(0.8)
    assert transmission(loss, 10) == pytest.approx(0.8**11)
    lossy = LossModel(0.9, 0.95)
    assert transmission(lossy, 3) == pytest.approx(0.9**4 * 0.95**3)
    # an array of loop counts gives the same chain, element by element
    chain = transmission(lossy, np.arange(12))
    assert list(chain) == [transmission(lossy, l) for l in range(12)]
    with pytest.raises(ValueError):
        transmission(lossy, np.array([2, -1]))


def test_transmission_scalar_calls_equal_the_array_call_bit_for_bit():
    # numpy evaluates x**2 over a 0-d exponent as x*x, over an array with
    # pow: at eta_s 0.8, eta_f 0.909 a scalar loops=2 was an ulp higher
    rng = np.random.default_rng(15)
    for eta_s, eta_f in [(0.8, 0.909), *rng.uniform(0.0, 1.0, (300, 2)).tolist()]:
        loss = LossModel(eta_s, eta_f)
        scalars = [transmission(loss, loops) for loops in range(12)]
        assert all(type(value) is float for value in scalars)
        assert np.array(scalars).tobytes() == transmission(loss, np.arange(12)).tobytes()


@pytest.mark.parametrize("eta_s,eta_f", [(1.0, 1.0), (0.9, 0.95), (0.5, 0.99), (0.0, 1.0)])
def test_transmission_non_increasing_in_loops(eta_s, eta_f):
    loss = LossModel(eta_s, eta_f)
    values = [transmission(loss, l) for l in range(12)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_model_validation_errors():
    with pytest.raises(ValueError):
        SourceModel(-0.1)
    with pytest.raises(ValueError):
        DetectorModel(RESOLVED, 1.2)
    with pytest.raises(ValueError):
        LossModel(0.5, -0.01)
    with pytest.raises(ValueError):
        ConstantPump(-1.0)
    with pytest.raises(ValueError):
        PerBinPump((0.5, -0.5))
    with pytest.raises(ValueError):
        ProtocolConfig(0, ConstantPump(1.0), DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))
    with pytest.raises(ValueError, match="kind must be a DetectorKind, got 'bucket'"):
        DetectorModel("bucket", 0.5)
    with pytest.raises(ValueError, match="per-bin pump schedule must have at least one entry"):
        PerBinPump(())
    with pytest.raises(ValueError, match="pump must be ConstantPump or PerBinPump, got 1.0"):
        ProtocolConfig(2, 1.0, DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))
    with pytest.raises(ValueError, match="need at least one time-bin entry plus the no-herald"):
        OutcomeDistribution((1.0,))


@pytest.mark.parametrize("time_bins", [True, 2.5, 0])
def test_protocol_time_bins_must_be_a_positive_int(time_bins):
    with pytest.raises(ValueError, match="time_bins must be a positive integer"):
        ProtocolConfig(time_bins, ConstantPump(1.0), DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))


def test_per_bin_pump_length_must_match():
    pump = PerBinPump((0.1, 0.2, 0.3))
    config = ProtocolConfig(3, pump, DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))
    assert config.bin_means() == pytest.approx([0.1, 0.2, 0.3])
    # the config and bin_means share the pump's length check
    with pytest.raises(ValueError, match="schedule has 3 entries but the protocol has 2 "):
        ProtocolConfig(2, pump, DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))


def test_per_bin_config_checks_the_length_without_building_the_means(monkeypatch):
    def refuse(self, time_bins):
        raise AssertionError("bin_means built an array")

    monkeypatch.setattr(PerBinPump, "bin_means", refuse)
    pump = PerBinPump((0.1, 0.2, 0.3))
    config = ProtocolConfig(3, pump, DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))
    assert config.pump is pump
    with pytest.raises(ValueError, match="schedule has 3 entries but the protocol has 4 "):
        ProtocolConfig(4, pump, DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))


def test_constant_pump_broadcast():
    pump = ConstantPump(0.7)
    assert pump.bin_means(4) == pytest.approx([0.7] * 4)
    # a source model of its own type: a bare SourceModel is no pump
    assert isinstance(pump, SourceModel) and repr(pump) == "ConstantPump(mean_photon_number=0.7)"
    assert pump == ConstantPump(0.7) and hash(pump) == hash(ConstantPump(0.7))
    assert pump != SourceModel(0.7)
    with pytest.raises(ValueError, match=r"pump must be .*, got SourceModel\(mean_photon_number=0.7\)"):
        ProtocolConfig(2, SourceModel(0.7), DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0))


def test_outcome_distribution_validation():
    dist = OutcomeDistribution((0.5, 0.25, 0.25))
    assert dist.time_bins == 2
    assert dist.no_herald == 0.25
    assert dist.herald_probability == pytest.approx(0.75)
    with pytest.raises(ValueError):
        OutcomeDistribution((0.5, 0.25))
    with pytest.raises(ValueError):
        OutcomeDistribution((1.2, -0.2))
    # m-source distributions are OutcomeDistributions and pass the same check
    parallel = m_source_distribution(0.5, 2, 2)
    assert isinstance(parallel, OutcomeDistribution)
    assert parallel.time_bins == 2
    assert parallel.herald_probability == 0.9375


@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
@pytest.mark.parametrize("where", [0, 50_000, 100_000])
def test_long_outcome_distribution_names_its_bad_entry(bad, where):
    # the range check runs over all 100,001 entries at once
    entries = np.full(100_001, 1.0 / 100_001)
    entries[where] = bad
    with pytest.raises(ValueError, match=f"probability entry out of range: {bad}"):
        OutcomeDistribution(entries)
    entries[where] = 1.0 / 100_001
    assert OutcomeDistribution(entries).probabilities == tuple(entries.tolist())


def test_negative_zero_pump_level_reads_as_zero():
    for level in (SourceModel(-0.0).mean_photon_number, ConstantPump(-0.0).mean_photon_number,
                  *PerBinPump((-0.0, 0.5, np.float64(-0.0))).mean_photon_numbers[::2]):
        assert level == 0.0 and math.copysign(1.0, level) == 1.0
    assert ConstantPump(-0.0).bin_means(3).tolist() == [0.0, 0.0, 0.0]
    assert math.copysign(1.0, ConstantPump(-0.0).bin_means(1)[0]) == 1.0
    # every other level keeps its value and type
    assert type(SourceModel(2).mean_photon_number) is int
    assert SourceModel(5e-324).mean_photon_number == 5e-324


def test_thermal_pmf_rejects_negative_count():
    with pytest.raises(ValueError):
        thermal_pmf(SourceModel(1.0), -1)
    with pytest.raises(ValueError):
        thermal_pmf(SourceModel(1.0), np.array([0, 1, -1]))
    with pytest.raises(ValueError):
        detect_prob(DetectorModel(BUCKET, 0.5), DetectorOutcome.CLICK, np.array([2, -1]))
    with pytest.raises(ValueError):
        prep_pmf_oracle(SourceModel(1.0), DetectorModel(BUCKET, 0.5), np.array([1, 0]))


_SOURCE, _LOSS = SourceModel(1.0), LossModel(0.9, 0.9)
_DETECTOR = DetectorModel(BUCKET, 0.9)


@pytest.mark.parametrize("count, noun, call", [
    (2.5, "photon number", lambda n: thermal_pmf(_SOURCE, n)),
    (True, "photon number", lambda n: thermal_pmf(_SOURCE, n)),
    (np.array([1, 2, math.nan]), "photon number", lambda n: thermal_pmf(_SOURCE, n)),
    (np.array([0, math.inf]), "photon number", lambda n: thermal_pmf(_SOURCE, n)),
    (0.5, "photon number", lambda n: detect_prob(_DETECTOR, DetectorOutcome.CLICK, n)),
    (1.5, "heralded photon number", lambda n: prep_pmf(_SOURCE, _DETECTOR, n)),
    (np.array([True, True]), "heralded photon number",
     lambda n: prep_pmf_oracle(_SOURCE, _DETECTOR, n)),
    (2.5, "loop count", lambda n: transmission(_LOSS, n)),
    (math.nan, "loop count", lambda n: transmission(_LOSS, n)),
    (1.5, "loop count", lambda n: fidelity_after_loops(_SOURCE, _DETECTOR, _LOSS, n)),
    (2.5, "loop count", lambda n: assess_feasibility(1e6, loops=n)),
], ids=["pmf-2.5", "pmf-True", "pmf-nan", "pmf-inf", "detect-0.5", "prep-1.5", "prep-bools",
        "transmission-2.5", "transmission-nan", "fidelity-1.5", "feasibility-2.5"])
def test_counts_must_be_integers(count, noun, call):
    # each read a value: thermal_pmf 0.0884 at 2.5, detect_prob 0.684 at
    # 0.5, assess_feasibility loops_assessed=2.5; True raised numpy's TypeError
    with pytest.raises(ValueError, match=f"{noun} must be an integer"):
        call(count)


def test_integral_float_counts_read_as_their_ints():
    assert thermal_pmf(_SOURCE, 2.0) == thermal_pmf(_SOURCE, 2)
    chain = transmission(_LOSS, np.array([0.0, 3.0]))
    assert chain.tolist() == transmission(_LOSS, np.array([0, 3])).tolist()
