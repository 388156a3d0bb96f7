"""Output checks for benchmark jobs.

Seeded outputs may legitimately change when the program changes, so no
check compares bytes against a fixed digest.  Instead:

- figure datasets are compared with values recorded in
  ``reference.json`` (column sums and sampled rows), to a tight relative
  tolerance; fig8's optimized values need only be at least as good;
- a seeded sample of sweep cells is recomputed with the package's
  ``*_oracle`` series functions;
- an optimizer's reported value must equal the closed-form value of the
  schedule it returned, and a schedule must be no worse than the best
  constant level;
- Monte Carlo counts must lie within a bound a correct engine exceeds
  with probability below 1e-6 per check.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

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
    fidelity_after_loops_oracle,
    fidelity_report,
    herald_single_shot,
    herald_single_shot_oracle,
    m_source_distribution,
    optimize_constant,
    outcome_distribution,
    parallel_unconditional_fidelity,
    unconditional_fidelity,
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FIGURE_REL_TOL = 1e-9
# fig8 holds optimizer maxima; their values are flat in the pump level,
# so a different but correct optimizer may move them in the last digits.
FIG8_REL_TOL = 1e-6
ORACLE_REL_TOL = 1e-9
CLOSED_FORM_REL_TOL = 1e-9
ABS_TOL = 1e-15
SAMPLE_ROWS = 24
SWEEP_SAMPLES = 12

# |k - n p| <= Z_BOUND * sqrt(n p (1 - p)) + COUNT_SLACK.  The slack keeps
# the bound valid for rare events, where the normal approximation fails;
# over n up to 3e5 and every p the two-sided binomial tail beyond this
# bound is at most 5.3e-7.
Z_BOUND = 5.0
COUNT_SLACK = 5.0


def read_table(path: Path, fmt: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a CSV or JSON dataset written by the CLI."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        data = json.loads(text)["columns"]
        return list(data), [list(row) for row in zip(*data.values())]
    reader = csv.reader(io.StringIO(text))
    columns = next(reader)
    return columns, [[_csv_cell(cell) for cell in row] for row in reader]


def _csv_cell(text: str):
    if text == "undefined":
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def summarize(columns: list[str], rows: list[list]) -> dict:
    """Column sums and evenly spaced sample rows of a numeric dataset."""
    sums = [
        math.fsum(row[i] for row in rows if isinstance(row[i], (int, float)))
        for i in range(len(columns))
    ]
    n = len(rows)
    picks = sorted({round(k * (n - 1) / (SAMPLE_ROWS - 1)) for k in range(SAMPLE_ROWS)}) if n else []
    return {"columns": columns, "rows": n, "sums": sums,
            "sample": [[i, rows[i]] for i in picks]}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check(job, path: Path, reference: dict) -> list[str]:
    try:
        columns, rows = read_table(path, job.fmt)
        return _CHECKS[job.kind](job, columns, rows, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def _close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(abs(a), abs(b)) + ABS_TOL


def _check_figure(job, columns, rows, reference) -> list[str]:
    ref = reference[job.params["figure"]]
    if columns != ref["columns"] or len(rows) != ref["rows"]:
        return [f"shape {len(rows)}x{columns} differs from reference {ref['rows']}x{ref['columns']}"]
    if job.params["figure"] == "fig8":
        return _check_fig8(columns, rows, ref)
    problems = []
    got = summarize(columns, rows)
    for column, a, b in zip(columns, got["sums"], ref["sums"]):
        if not _close(a, b, FIGURE_REL_TOL):
            problems.append(f"column {column} sums to {a!r}, reference {b!r}")
    for index, expected in ref["sample"]:
        for column, a, b in zip(columns, rows[index], expected):
            if not _close(a, b, FIGURE_REL_TOL):
                problems.append(f"row {index} column {column} is {a!r}, reference {b!r}")
    return problems


def _check_fig8(columns, rows, ref) -> list[str]:
    problems = []
    expected_rows = dict(ref["sample"])
    for index, row in enumerate(rows):
        expected = expected_rows[index]
        for i, column in enumerate(columns):
            if not column.startswith("constant_"):
                if column == "time_bins" and row[i] != expected[i]:
                    problems.append(f"row {index} time_bins {row[i]!r}")
                continue
            constant, biased = row[i], row[i + 1]
            if not _close(constant, expected[i], FIG8_REL_TOL):
                problems.append(f"row {index} {column} is {constant!r}, reference {expected[i]!r}")
            floor = max(constant * (1.0 - 1e-12), expected[i + 1] * (1.0 - FIG8_REL_TOL))
            if not (floor <= biased <= 1.0):
                problems.append(f"row {index} {columns[i + 1]} is {biased!r}, below {floor!r}")
    return problems


def _models(detector: str, eta: float) -> tuple[DetectorModel, LossModel]:
    kind = DetectorKind.NUMBER_RESOLVED if detector == "resolved" else DetectorKind.BUCKET
    return DetectorModel(kind, eta), LossModel(eta, eta)


def _oracle_sweep_cell(t: int, nbar: float, det: DetectorModel, loss: LossModel):
    """(single_shot, train, conditional, unconditional) by the series
    oracles, independent of the closed forms the CLI uses."""
    source = SourceModel(nbar)
    single = herald_single_shot_oracle(source, det)
    train = 1.0 - (1.0 - single) ** t
    unconditional = math.fsum(
        single * (1.0 - single) ** loops * fidelity_after_loops_oracle(source, det, loss, loops)
        for loops in range(t)
    )
    return single, train, unconditional / train, unconditional


def _check_sweep(job, columns, rows, reference) -> list[str]:
    p = job.params
    expected_columns = ["time_bins", "nbar", "single_shot", "train", "conditional", "unconditional"]
    grid = [(t, nbar) for t in p["ts"] for nbar in p["nbars"]]
    if columns != expected_columns or len(rows) != len(grid):
        return [f"shape {len(rows)}x{columns}, expected {len(grid)}x{expected_columns}"]
    problems = []
    for row, (t, nbar) in zip(rows, grid):
        if row[0] != t or row[1] != nbar:
            problems.append(f"row for t={t}, nbar={nbar!r} reads {row[:2]!r}")
            break
        if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in row[2:]):
            problems.append(f"t={t}, nbar={nbar!r}: value outside [0, 1] in {row[2:]!r}")
            break
    det, loss = _models(p["detector"], p["eta"])
    sampler = random.Random(p["sample_seed"])
    for index in sampler.sample(range(len(grid)), SWEEP_SAMPLES):
        t, nbar = grid[index]
        expected = _oracle_sweep_cell(t, nbar, det, loss)
        for column, a, b in zip(expected_columns[2:], rows[index][2:], expected):
            if not _close(a, b, ORACLE_REL_TOL):
                problems.append(f"t={t}, nbar={nbar!r}: {column} {a!r}, oracle {b!r}")
    return problems


def _check_optimize(job, columns, rows, reference) -> list[str]:
    p = job.params
    t = p["t"]
    det, loss = _models(p["detector"], p["eta"])
    objective = Objective(p["objective"])
    closed_form = (unconditional_fidelity if objective is Objective.UNCONDITIONAL
                   else conditional_fidelity)
    if columns != ["objective", "time_bins", "bin", "loops_before_output", "nbar",
                   "value", "evaluations"]:
        return [f"unexpected columns {columns}"]
    values = {row[5] for row in rows}
    if len(values) != 1 or any(row[0] != p["objective"] or row[1] != t for row in rows):
        return ["rows disagree on objective, time-bins or value"]
    value = values.pop()
    if p["biased"]:
        schedule = {row[3]: row[4] for row in rows}
        if sorted(schedule) != list(range(t)):
            return [f"schedule covers loops {sorted(schedule)}, expected 0..{t - 1}"]
        pump = PerBinPump(tuple(schedule[loop] for loop in range(t)))
    else:
        if len(rows) != 1 or rows[0][2] != "constant":
            return ["constant optimization must report one 'constant' row"]
        pump = ConstantPump(rows[0][4])
    problems = []
    if not all(1e-3 <= nbar <= 10.0 for nbar in (row[4] for row in rows)):
        problems.append("pump level outside the default bounds [1e-3, 10]")
    exact = closed_form(ProtocolConfig(t, pump, det, loss))
    if not _close(value, exact, CLOSED_FORM_REL_TOL):
        problems.append(f"reported value {value!r}, closed form of its schedule {exact!r}")
    if p["biased"]:
        template = ProtocolConfig(t, ConstantPump(1.0), det, loss)
        best_constant = optimize_constant(template, objective).objective_value
        if value < best_constant * (1.0 - 1e-12):
            problems.append(f"schedule value {value!r} below best constant {best_constant!r}")
    return problems


def _count_within(successes: int, n: int, p: float) -> bool:
    return abs(successes - n * p) <= Z_BOUND * math.sqrt(n * p * (1.0 - p)) + COUNT_SLACK


def _check_monte_carlo(job, columns, rows, reference) -> list[str]:
    p = job.params
    det, loss = _models(p["detector"], p["eta"])
    config = ProtocolConfig(p["t"], ConstantPump(p["nbar"]), det, loss)
    if "sources" in p:
        single = herald_single_shot(SourceModel(p["nbar"]), det)
        dist = m_source_distribution(single, p["t"], p["sources"])
        herald = 1.0 - dist.no_herald
        unconditional = parallel_unconditional_fidelity(dist, fidelity_report(config).per_loop)
    else:
        herald = outcome_distribution(config).herald_probability
        unconditional = unconditional_fidelity(config)
    conditional = unconditional / herald

    if len(rows) != 1:
        return [f"expected one summary row, got {len(rows)}"]
    row = dict(zip(columns, rows[0]))
    n = p["trials"]
    if row["trials"] != n or row["seed"] != p["seed"]:
        return [f"trials/seed {row['trials']}/{row['seed']} differ from the job's"]
    if "sources" in p and row["sources"] != p["sources"]:
        return [f"sources {row['sources']} differ from the job's"]
    heralded = round(row["herald_rate"] * n)
    single_photon = round(row["unconditional_fidelity"] * n)
    if heralded == 0:
        return ["no trial heralded"]
    problems = []
    if not _close(row["conditional_fidelity"], single_photon / heralded, 1e-12):
        problems.append("conditional estimate is not single-photon trials over heralded trials")
    for name, successes, trials, prob in (
        ("herald_rate", heralded, n, herald),
        ("unconditional_fidelity", single_photon, n, unconditional),
        ("conditional_fidelity", single_photon, heralded, conditional),
    ):
        rate = row[name]
        expected_se = math.sqrt(rate * (1.0 - rate) / trials)
        if not _close(row[name + "_se"], expected_se, 1e-9):
            problems.append(f"{name}_se {row[name + '_se']!r}, expected {expected_se!r}")
        if not _count_within(successes, trials, prob):
            problems.append(f"{name}: {successes} of {trials}, closed form expects {trials * prob:.6g}")
    return problems


_CHECKS = {
    "figure": _check_figure,
    "sweep": _check_sweep,
    "optimize": _check_optimize,
    "simulate": _check_monte_carlo,
    "parallel": _check_monte_carlo,
}
