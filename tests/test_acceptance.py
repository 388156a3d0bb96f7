"""Acceptance suite: one test per shipped guarantee, one printed
PASS/FAIL line per criterion.

Run with::

    pytest tests/test_acceptance.py -v -s

Criterion 8 documents the accuracy of the quoted high-pump scaling law
eta^2/nbar.  The exact large-nbar limit of the bucket unconditional
fidelity differs from that scaling by more than the stated 5% band when
eta = 0.95 (about 9% at t=1 and 10% at t=10 for nbar = 100), so that
criterion fails for the eta = 0.95 subcases and passes for eta = 1.
The README and the test below carry the derivation; the formulas under
test are verified against independent series oracles in criterion 1.
"""

import math
import time

import numpy as np

from loopsource import (
    ConstantPump,
    DetectorKind,
    DetectorModel,
    LossModel,
    Objective,
    PerBinPump,
    ProtocolConfig,
    SourceModel,
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
    m_source_distribution,
    m_source_distribution_oracle,
    optimize_constant,
    optimize_schedule,
    outcome_distribution,
    parallel_unconditional_fidelity,
    prep_pmf,
    prep_pmf_oracle,
    run_simulation,
    simulate_parallel_sources,
    unconditional_fidelity,
)
from loopsource.cli import assess_feasibility, main

RESOLVED = DetectorKind.NUMBER_RESOLVED
BUCKET = DetectorKind.BUCKET

NBAR_GRID = np.geomspace(0.01, 10.0, 201)
ETA_D_GRID = (0.3, 0.8, 0.95, 0.99, 1.0)
KINDS = (RESOLVED, BUCKET)


def _report(number, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number}: {detail}")


def _rel(a, b):
    if b == 0.0:
        return 0.0 if a == 0.0 else math.inf
    return abs(a - b) / abs(b)


def test_criterion_01_closed_forms_match_series_oracles():
    start = time.perf_counter()
    worst = 0.0
    loss = LossModel(0.9, 0.95)
    for nbar in NBAR_GRID:
        source = SourceModel(float(nbar))
        for eta in ETA_D_GRID:
            for kind in KINDS:
                det = DetectorModel(kind, eta)
                worst = max(
                    worst,
                    _rel(herald_single_shot(source, det), herald_single_shot_oracle(source, det)),
                    _rel(
                        detector_limited_fidelity(source, det),
                        detector_limited_fidelity_oracle(source, det),
                    ),
                )
                for n in (1, 2, 5):
                    worst = max(
                        worst,
                        _rel(prep_pmf(source, det, n), prep_pmf_oracle(source, det, n)),
                    )
                for loops in (0, 3):
                    worst = max(
                        worst,
                        _rel(
                            fidelity_after_loops(source, det, loss, loops),
                            fidelity_after_loops_oracle(source, det, loss, loops),
                        ),
                    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        1,
        ok,
        f"closed forms vs series oracles on {len(NBAR_GRID)}-point pump grid, "
        f"worst rel err {worst:.2e} (tol 1e-10), {elapsed:.1f}s (limit 10s)",
    )
    assert ok


def test_criterion_02_pump_optimization_reference_point():
    start = time.perf_counter()
    config = ProtocolConfig(
        3, ConstantPump(1.0), DetectorModel(BUCKET, 0.95), LossModel(0.95, 0.95)
    )
    constant = optimize_constant(config, Objective.UNCONDITIONAL)
    schedule = optimize_schedule(config, Objective.UNCONDITIONAL)
    elapsed = time.perf_counter() - start
    chronological = tuple(reversed(schedule.schedule.mean_photon_numbers))
    expected = (1.31, 0.693, 0.466)
    checks = [
        abs(constant.objective_value - 0.441) <= 0.002,
        abs(constant.schedule.mean_photon_number - 0.668) <= 0.01,
        abs(schedule.objective_value - 0.458) <= 0.002,
        all(abs(a - b) <= 0.03 for a, b in zip(chronological, expected)),
        elapsed < 30.0,
    ]
    ok = all(checks)
    _report(
        2,
        ok,
        f"constant optimum F={constant.objective_value:.4f} at "
        f"nbar={constant.schedule.mean_photon_number:.4f} "
        f"(want 0.441+-0.002 at 0.668+-0.01); "
        f"schedule F={schedule.objective_value:.4f} at "
        f"{tuple(round(x, 4) for x in chronological)} "
        f"(want 0.458+-0.002 at (1.31, 0.693, 0.466)+-0.03); {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_perfect_efficiency_limits():
    worst = 0.0
    for nbar in (0.1, 1.0, 5.0):
        for t in (1, 3, 17):
            resolved = ProtocolConfig(
                t, ConstantPump(nbar), DetectorModel(RESOLVED, 1.0), LossModel(1.0, 1.0)
            )
            bucket = ProtocolConfig(
                t, ConstantPump(nbar), DetectorModel(BUCKET, 1.0), LossModel(1.0, 1.0)
            )
            worst = max(
                worst,
                abs(conditional_fidelity(resolved) - 1.0),
                abs(conditional_fidelity(bucket) - 1.0 / (1.0 + nbar)),
            )
    ok = worst < 1e-12
    _report(
        3,
        ok,
        f"perfect-efficiency limits, worst deviation {worst:.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_04_product_identity():
    worst = 0.0
    for t in (1, 5, 50):
        for eta in ETA_D_GRID:
            for kind in KINDS:
                for nbar in NBAR_GRID:
                    config = ProtocolConfig(
                        t,
                        ConstantPump(float(nbar)),
                        DetectorModel(kind, eta),
                        LossModel(1.0, 1.0),
                    )
                    report = fidelity_report(config)
                    train = outcome_distribution(config).herald_probability
                    worst = max(worst, abs(report.unconditional - train * report.conditional))
    ok = worst < 1e-12
    _report(
        4,
        ok,
        f"unconditional equals train probability times conditional, "
        f"worst gap {worst:.2e} (tol 1e-12)",
    )
    assert ok


def _randomized_configs(master_seed):
    rng = np.random.default_rng(master_seed)
    out = []
    for i in range(10):
        t = int(rng.integers(1, 13))
        kind = RESOLVED if rng.random() < 0.5 else BUCKET
        eta_d = float(rng.uniform(0.6, 1.0))
        eta_s = float(rng.uniform(0.7, 1.0))
        eta_f = float(rng.uniform(0.85, 1.0))
        if i == 7:
            pump = PerBinPump(tuple(float(x) for x in rng.uniform(0.05, 2.0, t)))
        else:
            pump = ConstantPump(float(rng.uniform(0.05, 2.0)))
        config = ProtocolConfig(t, pump, DetectorModel(kind, eta_d), LossModel(eta_s, eta_f))
        out.append((config, 3 if i == 9 else 1))
    return out


def _analytic_reference(config, sources):
    if sources == 1:
        dist = outcome_distribution(config)
        report = fidelity_report(config)
        return (
            dist.probabilities,
            dist.herald_probability,
            report.conditional,
            report.unconditional,
        )
    single = herald_single_shot(SourceModel(float(config.bin_means()[0])), config.detector)
    dist = m_source_distribution(single, config.time_bins, sources)
    report = fidelity_report(config)
    unconditional = parallel_unconditional_fidelity(dist, report.per_loop)
    herald = 1.0 - dist.no_herald
    return dist.probabilities, herald, unconditional / herald, unconditional


def test_criterion_05_monte_carlo_agreement():
    trials = 1_000_000
    start = time.perf_counter()
    worst_scalar = 0.0
    worst_bin = 0.0
    for i, (config, sources) in enumerate(_randomized_configs(20250815)):
        seed = 20250400 + i
        if sources == 1:
            summary = run_simulation(config, trials, seed)
        else:
            summary = simulate_parallel_sources([config] * sources, trials, seed)
        probs, herald, cond, uncond = _analytic_reference(config, sources)

        se = math.sqrt(herald * (1.0 - herald) / trials)
        worst_scalar = max(worst_scalar, abs(summary.herald_rate.value - herald) / se)
        se = math.sqrt(uncond * (1.0 - uncond) / trials)
        worst_scalar = max(
            worst_scalar, abs(summary.unconditional_fidelity.value - uncond) / se
        )
        heralded = sum(summary.loop_counts[:-1])
        se = math.sqrt(cond * (1.0 - cond) / heralded)
        deviation = abs(summary.conditional_fidelity.value - cond)
        if se > 0.0:
            worst_scalar = max(worst_scalar, deviation / se)
        else:
            worst_scalar = max(worst_scalar, 0.0 if deviation == 0.0 else math.inf)
        for l, p in enumerate(probs):
            se = math.sqrt(p * (1.0 - p) / trials)
            gap = abs(summary.loop_histogram.probabilities[l] - p)
            if se > 0.0:
                worst_bin = max(worst_bin, gap / se)
            elif gap > 0.0:
                worst_bin = math.inf
    elapsed = time.perf_counter() - start
    ok = worst_scalar < 3.0 and worst_bin < 4.0 and elapsed < 120.0
    _report(
        5,
        ok,
        f"10 randomized million-trial runs, worst scalar {worst_scalar:.2f} sigma "
        f"(limit 3), worst histogram bin {worst_bin:.2f} sigma (limit 4), "
        f"{elapsed:.0f}s (limit 120s)",
    )
    assert ok


def test_criterion_05_mean_z_over_forty_seeds():
    """Criterion 5's ten configurations, each over forty fixed seeds
    (9101-9140, chosen with the trial count before the first run) of
    200,000 trials: the mean z-score of the herald rate and of both
    fidelities stays within 0.7 of 0 per configuration, ~4.4 standard
    errors of a mean of 40 unit normals.  A bias shows here where the
    worst of one seed's z-scores hides it."""
    trials = 200_000
    worst = 0.0
    for config, sources in _randomized_configs(20250815):
        _, herald, cond, uncond = _analytic_reference(config, sources)
        z = []
        for seed in range(9101, 9141):
            summary = simulate_parallel_sources([config] * sources, trials, seed)
            heralded = sum(summary.loop_counts[:-1])
            z.append([
                (summary.herald_rate.value - herald) / math.sqrt(herald * (1.0 - herald) / trials),
                (summary.unconditional_fidelity.value - uncond)
                / math.sqrt(uncond * (1.0 - uncond) / trials),
                (summary.conditional_fidelity.value - cond)
                / math.sqrt(cond * (1.0 - cond) / heralded),
            ])
        worst = max(worst, float(np.abs(np.mean(z, axis=0)).max()))
    ok = worst <= 0.7
    _report("5 (many seeds)", ok, f"worst mean z over 40 seeds {worst:.3f} (limit 0.7)")
    assert ok


def test_criterion_06_parallel_closed_forms():
    worst_two = 0.0
    for single in np.linspace(0.05, 0.95, 10):
        for t in range(1, 7):
            fast = m_source_distribution(float(single), t, 2)
            for j in range(t):
                expected = single * (1.0 - single) ** (2 * j) * (2.0 - single)
                worst_two = max(worst_two, abs(fast.probabilities[j] - expected))
            worst_two = max(worst_two, abs(fast.no_herald - (1.0 - single) ** (2 * t)))
    worst_brute = 0.0
    for single in (0.2, 0.5, 0.85):
        for t in range(1, 5):
            for m in range(1, 4):
                fast = m_source_distribution(single, t, m)
                slow = m_source_distribution_oracle(single, t, m)
                worst_brute = max(
                    worst_brute,
                    max(abs(a - b) for a, b in zip(fast.probabilities, slow.probabilities)),
                )
    ok = worst_two <= 1e-12 and worst_brute <= 1e-12
    _report(
        6,
        ok,
        f"two-source closed form gap {worst_two:.2e}, brute-force enumeration "
        f"gap {worst_brute:.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_07_ordering_properties():
    single_ok = True
    for nbar in NBAR_GRID:
        source = SourceModel(float(nbar))
        for eta in ETA_D_GRID:
            bucket = herald_single_shot(source, DetectorModel(BUCKET, eta))
            resolved = herald_single_shot(source, DetectorModel(RESOLVED, eta))
            if bucket < resolved:
                single_ok = False
    fidelity_ok = True
    for t in (1, 5, 50):
        for nbar in NBAR_GRID:
            for eta in ETA_D_GRID:
                resolved = conditional_fidelity(
                    ProtocolConfig(
                        t,
                        ConstantPump(float(nbar)),
                        DetectorModel(RESOLVED, eta),
                        LossModel(1.0, 1.0),
                    )
                )
                bucket = conditional_fidelity(
                    ProtocolConfig(
                        t,
                        ConstantPump(float(nbar)),
                        DetectorModel(BUCKET, eta),
                        LossModel(1.0, 1.0),
                    )
                )
                if resolved < bucket - 1e-13:
                    fidelity_ok = False
    ok = single_ok and fidelity_ok
    _report(
        7,
        ok,
        "bucket heralds at least as often as resolved, and resolved "
        "conditional fidelity dominates bucket without loop loss "
        f"(herald ordering {'ok' if single_ok else 'violated'}, "
        f"fidelity ordering {'ok' if fidelity_ok else 'violated'})",
    )
    assert ok


def test_criterion_08_high_pump_scaling_five_percent():
    nbar = 100.0
    cases = []
    for eta in (0.95, 1.0):
        for t in (1, 10):
            config = ProtocolConfig(
                t, ConstantPump(nbar), DetectorModel(BUCKET, eta), LossModel(eta, eta)
            )
            deviation = _rel(unconditional_fidelity(config), large_nbar_asymptote(eta, nbar))
            cases.append((eta, t, deviation))
    ok = all(dev <= 0.05 for _, _, dev in cases)
    detail = ", ".join(f"eta={eta:g} t={t}: {dev:.1%}" for eta, t, dev in cases)
    _report(
        8,
        ok,
        f"unconditional bucket fidelity at nbar=100 vs eta^2/nbar within 5%: {detail}",
    )
    assert ok, (
        "the eta^2/nbar scaling is approximate; its exact large-pump limit "
        "is (1 + (1-eta)(2-eta)) / (eta (2-eta)^2 nbar), which sits 11% away "
        "at eta=0.95, so no faithful implementation can meet the 5% band there"
    )


def test_criterion_09_feasibility_arithmetic():
    ghz = assess_feasibility(1e9)
    mhz = assess_feasibility(80e6)
    khz = assess_feasibility(1e5)
    checks = [
        abs(ghz.fibre_length - 2.0) <= 0.1,
        abs(mhz.fibre_length - 2.6) <= 0.1,
        abs(khz.fibre_transmission - 0.91) <= 0.01,
    ]
    ok = all(checks)
    _report(
        9,
        ok,
        f"1 GHz -> {ghz.fibre_length:.2f} m (want 2.0+-0.1), "
        f"80 MHz -> {mhz.fibre_length:.2f} m (want 2.6+-0.1), "
        f"100 kHz -> fibre transmission {khz.fibre_transmission:.4f} (want 0.91+-0.01)",
    )
    assert ok


def _regenerate(figure, tmp_path, name):
    path = tmp_path / name
    code = main(["figure", figure, "--out", str(path)])
    assert code == 0
    return path.read_text()


def test_criterion_10_figure_datasets(tmp_path):
    import csv
    import io

    stable = True
    worst = 0.0
    for figure in ("fig2", "fig5", "fig7", "fig11"):
        first = _regenerate(figure, tmp_path, f"{figure}_a.csv")
        second = _regenerate(figure, tmp_path, f"{figure}_b.csv")
        if first != second:
            stable = False
        rows = list(csv.DictReader(io.StringIO(first)))
        for row in rows:
            if figure == "fig2":
                # spot formulas: 1-(1-S)^t with S = x/(1+x)^2 and x/(1+x)
                t = int(row["time_bins"])
                worst = max(
                    worst,
                    abs(float(row["herald_resolved"]) - (1.0 - 0.75**t)),
                    abs(float(row["herald_bucket"]) - (1.0 - 0.5**t)),
                )
            elif figure == "fig5":
                eta = float(row["eta_d"])
                nbar = float(row["nbar"])
                x = eta * nbar
                worst = max(
                    worst,
                    abs(float(row["fidelity_resolved"]) - ((1.0 + x) / (1.0 + nbar)) ** 2),
                    abs(float(row["fidelity_bucket"]) - (1.0 + x) / (1.0 + nbar) ** 2),
                )
            elif figure == "fig7":
                nbar = float(row["nbar"])
                eta = float(row["eta"])
                for kind, column in (
                    (RESOLVED, "unconditional_resolved"),
                    (BUCKET, "unconditional_bucket"),
                ):
                    config = ProtocolConfig(
                        100,
                        ConstantPump(nbar),
                        DetectorModel(kind, eta),
                        LossModel(eta, eta),
                    )
                    worst = max(
                        worst, abs(float(row[column]) - unconditional_fidelity(config))
                    )
            else:
                t = int(row["time_bins"])
                source = SourceModel(0.5)
                for kind, h_col, f_col in (
                    (RESOLVED, "herald_resolved", "fidelity_resolved"),
                    (BUCKET, "herald_bucket", "fidelity_bucket"),
                ):
                    config = ProtocolConfig(
                        t,
                        ConstantPump(0.5),
                        DetectorModel(kind, 0.8),
                        LossModel(0.8, 1.0),
                    )
                    worst = max(
                        worst,
                        abs(float(row[h_col]) - herald_train(source, DetectorModel(kind, 0.8), t)),
                        abs(float(row[f_col]) - conditional_fidelity(config)),
                    )
    ok = stable and worst <= 1e-12
    _report(
        10,
        ok,
        f"fig2/fig5/fig7/fig11 byte-identical across runs "
        f"({'yes' if stable else 'no'}), worst formula deviation {worst:.2e}",
    )
    assert ok
