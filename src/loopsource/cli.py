"""Command-line interface: parameter sweeps, optimization, Monte Carlo
runs, feasibility arithmetic, and regeneration of the standard figure
datasets as CSV or JSON.

Output contract: CSV is UTF-8 with a header row and 17-significant-digit
floats; JSON mirrors the columns as arrays under ``columns`` plus a
``meta`` object carrying the parsed flags (``null`` where the command
fills in a default itself), tool version, and seed where one applies.
Quantities conditioned on an event of probability zero, figure columns
included (a closed form's, by :func:`_given_herald`), are emitted as
the literal cell ``undefined`` in CSV and ``null`` in JSON.  Exit codes:
0 success, 2 usage error (a ``UsageError`` or a model's ``ValueError``,
one ``error:`` line each), 3 non-finite result.  Of the six commands
that share the detector flags and ``--t`` (at most 100000 bins), all but
``herald`` (no column of which reads the loss chain) take the loss flags,
all but ``optimize`` (which chooses the pump) take ``--nbar``, and all
but ``sweep`` take ``--chronological``; ``simulate`` and ``parallel``
share ``--trials``, ``--seed`` and ``--histogram``, each declared once.

Every command returns ``(table, meta)``.  ``table`` maps each column
name, in output order, to a float64 array, an int array of values below
2**53 (``sweep``'s train lengths, which ``%.17g`` writes exactly), or a
list of Python cells (int, float, str or ``None``): ints that must stay
exact (a 64-bit seed), labels, the cells of one-row tables, and a column
of which some cell is undefined; a column whose every cell is defined
stays an array.
The non-finite check works a column at a time and both renderers a
block of rows at a time; a long block of an array column whose values
repeat (an axis column of a grid) formats each distinct value once.  The
bytes they write are those of the stdlib's row-wise ``csv.writer`` with
``format(x, ".17g")`` floats and of ``json.dumps(..., indent=2)``.
``--sources`` is at most 64 and ``--trials`` at most 2**63 - 1, and a
pump level of -0 reads as 0.

A figure's builder is a function of its parameters, whose defaults
``FIGURES`` holds with it: a figure accepts exactly the flags its defaults
name, and a given flag parses like its default (``_figure_parameters``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__

# The analytic, multiplex and Monte Carlo entry points are bound on this
# module even where no command calls them: bench/tracing.py wraps them
# here to attribute time to layers.
from .analytic import (
    ClosedForm,
    _bin_law,
    _bin_rows,
    _closed_form_of,
    _parallel_train,
    closed_form,
    conditional_fidelity,
    detector_limited_fidelity,
    fidelity_report,
    herald_single_shot,
    herald_train,
    outcome_distribution,
    unconditional_fidelity,
)
from .models import (
    ConstantPump,
    DetectorKind,
    DetectorModel,
    LossModel,
    PerBinPump,
    ProtocolConfig,
    SourceModel,
    _check_probability,
    transmission,
)
from .montecarlo import _MAX_TRIALS, run_simulation, simulate_parallel_sources
from .multiplex import (
    Objective,
    _constant_heads,
    _schedule_heads,
    m_source_distribution,
    optimize_constant,
    optimize_schedule,
    parallel_unconditional_fidelity,
)

SPEED_OF_LIGHT = 299792458.0
DEFAULT_GROUP_INDEX = 1.468
DEFAULT_DETECTOR_RATE = 1e8
DEFAULT_ATTENUATION_DB_PER_KM = 0.2
# Longest train a command accepts: the closed forms' tested domain.
_MAX_TIME_BINS = 100_000
# Most sources `parallel` and fig9 accept: it bounds a run's source rounds
# and fig9's source counts; a bank keeps one loss chain per configuration.
_MAX_SOURCES = 64

class UsageError(Exception):
    """Invalid flag values or combinations; maps to exit code 2."""


@dataclass(frozen=True)
class FeasibilityReport:
    repetition_rate: float
    bin_separation: float
    fibre_length: float
    fibre_transmission: float
    loops_assessed: int
    net_transmission: float


def assess_feasibility(
    repetition_rate: float,
    attenuation_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM,
    loops: int = 10,
    switch_efficiency: float = 0.8,
    group_index: float = DEFAULT_GROUP_INDEX,
    detector_rate: float = DEFAULT_DETECTOR_RATE,
) -> FeasibilityReport:
    """Loop-delay and loss arithmetic for a candidate repetition rate.

    The bin separation is the pulse period or the detector's resolvable
    period, whichever is longer: a source clocked faster than the herald
    detector still needs loop round trips the detector can keep up with.
    Fibre length follows from the in-fibre light speed (c over the group
    index) and fibre transmission from the attenuation per km.  Each check
    is written so that NaN fails it; ``LossModel`` and ``transmission``
    check the switch efficiency and the loop count.
    """
    if not repetition_rate > 0.0:
        raise ValueError(f"repetition rate must be > 0, got {repetition_rate}")
    if not attenuation_db_per_km >= 0.0:
        raise ValueError(f"attenuation must be >= 0, got {attenuation_db_per_km}")
    if not group_index >= 1.0:
        raise ValueError(f"group index must be >= 1, got {group_index}")
    if not detector_rate > 0.0:
        raise ValueError(f"detector rate must be > 0, got {detector_rate}")
    bin_separation = max(1.0 / repetition_rate, 1.0 / detector_rate)
    fibre_length = SPEED_OF_LIGHT / group_index * bin_separation
    fibre_transmission = 10.0 ** (-attenuation_db_per_km * (fibre_length / 1000.0) / 10.0)
    loss = LossModel(switch_efficiency, fibre_transmission)
    return FeasibilityReport(
        repetition_rate=repetition_rate,
        bin_separation=bin_separation,
        fibre_length=fibre_length,
        fibre_transmission=fibre_transmission,
        loops_assessed=loops,
        net_transmission=transmission(loss, loops),
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Out-of-range inputs surface as non-finite cells; the scan below
        # reports them, so the intermediate warnings carry no information.
        with np.errstate(all="ignore"):
            table, meta = _COMMANDS[args.command](args)
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    bad_column = _first_non_finite(table)
    if bad_column is not None:
        print(f"error: non-finite value in column '{bad_column}'", file=sys.stderr)
        return 3
    text = _render_csv(table) if args.format == "csv" else _render_json(table, meta)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsource",
        description="Heralded single-photon loop source: sweeps, optimization, "
        "Monte Carlo, figure datasets, feasibility arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None, help="output file (default: stdout)")

    detection = argparse.ArgumentParser(add_help=False)
    detection.add_argument("--detector", choices=("resolved", "bucket"), default="bucket")
    detection.add_argument("--eta", type=float, default=None,
                           help="sets each efficiency flag not given")
    detection.add_argument("--eta-d", type=float, default=None, help="detector efficiency")
    detection.add_argument("--t", default="1", help="time-bins: an integer, a range a..b "
                           f"or an increasing comma list, each at most {_MAX_TIME_BINS}")
    physics = argparse.ArgumentParser(add_help=False, parents=[detection])
    physics.add_argument("--eta-s", type=float, default=None, help="switch efficiency")
    physics.add_argument("--eta-f", type=float, default=None, help="fibre-loop efficiency")
    # optimize chooses the pump; sweep's --nbar lists levels, not a schedule
    pump = argparse.ArgumentParser(add_help=False)
    pump.add_argument("--nbar", default="1", help="mean photon number; a comma list is a "
                      "per-bin schedule (sweep: the list of values to sweep)")
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--chronological", action="store_true",
                       help="read and report per-bin schedules in firing order "
                       "(default: reverse-chronological, entry 0 = final bin)")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--trials", type=int, default=100_000,
                          help="number of trials, at most 2**63 - 1")
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--histogram", action="store_true",
                          help="emit the loop histogram instead of the summary row")

    sub.add_parser("herald", parents=[detection, pump, order, output],
                   help="heralding probabilities for one configuration")
    sub.add_parser("fidelity", parents=[physics, pump, order, output],
                   help="per-loop and averaged fidelities for one configuration")
    sub.add_parser("sweep", parents=[physics, pump, output],
                   help="sweep time-bins and pump level")

    optimize = sub.add_parser("optimize", parents=[physics, order, output],
                              help="optimize the pump level or per-bin schedule")
    optimize.add_argument("--objective", choices=("conditional", "unconditional"),
                          default="unconditional")
    optimize.add_argument("--biased", action="store_true",
                          help="optimize a per-bin schedule instead of a constant level")
    optimize.add_argument("--nbar-min", type=float, default=1e-3)
    optimize.add_argument("--nbar-max", type=float, default=10.0)

    sub.add_parser("simulate", parents=[physics, pump, order, output, sampling],
                   help="Monte Carlo run of one source")
    parallel = sub.add_parser("parallel", parents=[physics, pump, order, output, sampling],
                              help="Monte Carlo run of parallel identical sources")
    parallel.add_argument("--sources", type=int, default=2,
                          help=f"number of sources, at most {_MAX_SOURCES}")

    figure = sub.add_parser("figure", parents=[output],
                            help="regenerate a standard figure dataset")
    figure.add_argument("figure_id", choices=sorted(FIGURES))
    figure.add_argument("--detector", choices=("resolved", "bucket"), default=None)
    figure.add_argument("--nbar", default=None)
    figure.add_argument("--eta", default=None)
    figure.add_argument("--eta-d", type=float, default=None)
    figure.add_argument("--eta-s", type=float, default=None)
    figure.add_argument("--eta-f", type=float, default=None)
    figure.add_argument("--t", default=None)
    figure.add_argument("--sources", type=int, default=None,
                        help=f"fig9: the most sources, at most {_MAX_SOURCES}")
    figure.add_argument("--reoptimize", action="store_true",
                        help="fig3/fig4: recompute the per-curve pump optima")

    feasibility = sub.add_parser("feasibility", parents=[output],
                                 help="repetition rate to fibre length and loss")
    feasibility.add_argument("--rate", type=float, required=True, help="repetition rate in Hz")
    feasibility.add_argument("--attenuation", type=float,
                             default=DEFAULT_ATTENUATION_DB_PER_KM, help="fibre loss in dB/km")
    feasibility.add_argument("--loops", type=int, default=10)
    feasibility.add_argument("--eta-s", type=float, default=0.8)
    feasibility.add_argument("--group-index", type=float, default=DEFAULT_GROUP_INDEX)
    feasibility.add_argument("--detector-rate", type=float, default=DEFAULT_DETECTOR_RATE,
                             help="highest herald rate the detector resolves, in Hz")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses: built on the first call rather than
    at import, which every CLI start would pay, and reused after."""
    return build_parser()


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise UsageError(f"{flag} expects a number or comma list, got {text!r}") from err
    if not values:
        raise UsageError(f"{flag} expects at least one value, got {text!r}")
    return values


def _parse_t_values(text: str) -> list[int]:
    try:
        spans: list[list[int]] = []
        for part in text.split(","):
            ends = [int(end) for end in part.split("..")]
            if len(ends) > 2 or ends[0] > ends[-1] or (spans and ends[0] <= spans[-1][-1]):
                raise ValueError
            spans.append(ends)
    except ValueError as err:
        raise UsageError(f"--t expects an integer, a range a..b or an increasing "
                         f"comma list of them, got {text!r}") from err
    # the spans increase, so their ends bound every value before any is listed
    if spans[0][0] < 1:
        raise UsageError(f"--t values must be >= 1, got {text!r}")
    if spans[-1][-1] > _MAX_TIME_BINS:
        raise UsageError(f"--t values must be <= {_MAX_TIME_BINS}, got {text!r}")
    return [t for ends in spans for t in range(ends[0], ends[-1] + 1)]


def _single(values: list, flag: str, text, command: str):
    """The one value that ``flag``'s ``text`` parsed to, for ``command``."""
    if len(values) != 1:
        raise UsageError(f"{flag} must be a single value for '{command}', got {text!r}")
    return values[0]


def _single_t(args: argparse.Namespace) -> int:
    return _single(_parse_t_values(args.t), "--t", args.t, args.command)


def _efficiency(value: float | None, fallback: float | None, flag: str) -> float:
    resolved = value if value is not None else (fallback if fallback is not None else 1.0)
    _check_probability(resolved, flag)
    return resolved


def _models_from_args(args: argparse.Namespace) -> tuple[DetectorModel, LossModel]:
    # --eta checked under its own name before it fills in the others
    eta = None if args.eta is None else _efficiency(args.eta, None, "--eta")
    eta_d = _efficiency(args.eta_d, eta, "--eta-d")
    # herald takes no loss flags: none of its columns reads the loss chain
    eta_s = _efficiency(vars(args).get("eta_s"), eta, "--eta-s")
    eta_f = _efficiency(vars(args).get("eta_f"), eta, "--eta-f")
    return DetectorModel(DetectorKind(args.detector), eta_d), LossModel(eta_s, eta_f)


def _pump_from_args(args: argparse.Namespace, time_bins: int):
    values = _parse_float_list(args.nbar, "--nbar")
    if len(values) == 1:
        return ConstantPump(values[0])
    if len(values) != time_bins:
        raise UsageError(
            f"--nbar lists {len(values)} bins but --t is {time_bins}"
        )
    if args.chronological:
        values = values[::-1]
    return PerBinPump(tuple(values))


def _config_from_args(args: argparse.Namespace, time_bins: int) -> ProtocolConfig:
    detector, loss = _models_from_args(args)
    return ProtocolConfig(time_bins, _pump_from_args(args, time_bins), detector, loss)


def _base_meta(args: argparse.Namespace) -> dict:
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "format", "out")
    }
    return {"command": args.command, "version": __version__, "parameters": parameters}


# ---------------------------------------------------------------------------
# commands


def _given_herald(column: np.ndarray, herald):
    """A herald-conditioned ``column`` as is where every row's train can
    herald (``herald``, its herald probability: one per row, or one for
    all); otherwise its cells, None (undefined) wherever ``herald`` is 0."""
    heralds = np.broadcast_to(herald, column.shape) > 0.0
    if heralds.all():
        return column
    return [value if ok else None for value, ok in zip(column.tolist(), heralds.tolist())]


def _one_row(names: list[str], cells: list) -> dict:
    """A one-row table; each column is a one-cell list."""
    return {name: [cell] for name, cell in zip(names, cells)}


def _loop_order(t: int, chronological: bool) -> list[int]:
    """Loop counts of a per-bin table's rows: newest bin first, or in
    firing order under ``--chronological``."""
    return list(range(t - 1, -1, -1)) if chronological else list(range(t))


def _cmd_herald(args: argparse.Namespace):
    t = _single_t(args)
    config = _config_from_args(args, t)
    nbars = config.bin_means()
    result = _closed_form_of(config)
    order = _loop_order(t, args.chronological)
    table = {
        "loops_before_output": order,
        "nbar": nbars[order],
        "single_shot": result.single_shot[order],
        "train": np.full(t, result.herald),
    }
    return table, _base_meta(args)


def _cmd_fidelity(args: argparse.Namespace):
    t = _single_t(args)
    config = _config_from_args(args, t)
    result = _closed_form_of(config)
    order = _loop_order(t, args.chronological)
    table = {
        "loops_before_output": order,
        "nbar": config.bin_means()[order],
        "transmission": transmission(config.loss, np.arange(t))[order],  # the kernel's chain
        "loop_fidelity": _given_herald(result.per_loop[order], result.herald),
        "conditional": _given_herald(np.full(t, result.conditional), result.herald),
        "unconditional": np.full(t, result.unconditional),
    }
    return table, _base_meta(args)


def _cmd_sweep(args: argparse.Namespace):
    t_values = _parse_t_values(args.t)
    nbars = _parse_float_list(args.nbar, "--nbar")
    detector, loss = _models_from_args(args)
    nbars = [SourceModel(nbar).mean_photon_number for nbar in nbars]  # -0 reads as 0
    taus = transmission(loss, np.arange(t_values[-1]))
    result = _trains(detector.kind, nbars, detector.efficiency, taus)
    # [t, nbar] grids, raveled t-major
    train, unconditional, conditional = (grid.ravel() for grid in result.by_length(t_values))
    table = {
        "time_bins": np.repeat(t_values, len(nbars)),
        "nbar": np.tile(nbars, len(t_values)),
        "single_shot": np.tile(result.single_shot[:, 0], len(t_values)),  # same at any t
        "train": train,
        "conditional": _given_herald(conditional, train),
        "unconditional": unconditional,
    }
    return table, _base_meta(args)


def _cmd_optimize(args: argparse.Namespace):
    t = _single_t(args)
    detector, loss = _models_from_args(args)
    config = ProtocolConfig(t, ConstantPump(1.0), detector, loss)
    objective = Objective(args.objective)
    bounds = (args.nbar_min, args.nbar_max)
    columns = ["objective", "time_bins", "bin", "loops_before_output", "nbar",
               "value", "evaluations"]
    if not args.biased:
        result = optimize_constant(config, objective, bounds)
        cells = [args.objective, t, "constant", "all", result.schedule.mean_photon_number,
                 result.objective_value, result.evaluations]
        return _one_row(columns, cells), _base_meta(args)
    result = optimize_schedule(config, objective, bounds)
    order = _loop_order(t, args.chronological)
    cells = [[args.objective] * t, [t] * t, list(range(t)), order,
             np.array(result.schedule.mean_photon_numbers)[order],
             np.full(t, result.objective_value), [result.evaluations] * t]
    return dict(zip(columns, cells)), _base_meta(args)


def _summary_dataset(args: argparse.Namespace, summary, t: int, extra: dict):
    """The Monte Carlo table, after ``extra``'s constant columns: the loop
    histogram (t + 1 rows, the last one the no-herald row) or the one-row
    summary."""
    meta = {**_base_meta(args), "seed": args.seed}
    if args.histogram:
        table = {name: [value] * (t + 1) for name, value in extra.items()}
        table.update({
            "loop": list(range(t + 1)),
            "count": list(summary.loop_counts),
            "frequency": np.array(summary.loop_histogram.probabilities),
        })
        return table, meta
    conditional = summary.conditional_fidelity
    names = list(extra) + [
        "trials", "seed", "herald_rate", "herald_rate_se",
        "conditional_fidelity", "conditional_fidelity_se",
        "unconditional_fidelity", "unconditional_fidelity_se",
    ]
    cells = list(extra.values()) + [
        summary.trials,
        summary.seed,
        summary.herald_rate.value,
        summary.herald_rate.standard_error,
        conditional.value if conditional is not None else None,
        conditional.standard_error if conditional is not None else None,
        summary.unconditional_fidelity.value,
        summary.unconditional_fidelity.standard_error,
    ]
    return _one_row(names, cells), meta


def _check_trials_seed(args: argparse.Namespace) -> None:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.trials > _MAX_TRIALS:
        raise UsageError(f"--trials must be <= {_MAX_TRIALS}, got {args.trials}")
    if not (0 <= args.seed < 2**64):
        raise UsageError(f"--seed must fit in 64 unsigned bits, got {args.seed}")


def _check_sources(sources: int) -> int:
    if sources < 1:
        raise UsageError(f"--sources must be >= 1, got {sources}")
    if sources > _MAX_SOURCES:
        raise UsageError(f"--sources must be <= {_MAX_SOURCES}, got {sources}")
    return sources


def _cmd_simulate(args: argparse.Namespace):
    t = _single_t(args)
    _check_trials_seed(args)
    config = _config_from_args(args, t)
    summary = run_simulation(config, args.trials, args.seed)
    return _summary_dataset(args, summary, t, {})


def _cmd_parallel(args: argparse.Namespace):
    t = _single_t(args)
    _check_trials_seed(args)
    _check_sources(args.sources)
    config = _config_from_args(args, t)
    summary = simulate_parallel_sources([config] * args.sources, args.trials, args.seed)
    return _summary_dataset(args, summary, t, {"sources": args.sources})


def _cmd_feasibility(args: argparse.Namespace):
    report = assess_feasibility(
        repetition_rate=args.rate,
        attenuation_db_per_km=args.attenuation,
        loops=args.loops,
        switch_efficiency=args.eta_s,
        group_index=args.group_index,
        detector_rate=args.detector_rate,
    )
    columns = ["repetition_rate", "bin_separation", "fibre_length",
               "fibre_transmission", "loops", "net_transmission"]
    cells = [report.repetition_rate, report.bin_separation, report.fibre_length,
             report.fibre_transmission, report.loops_assessed, report.net_transmission]
    return _one_row(columns, cells), _base_meta(args)


def _cmd_figure(args: argparse.Namespace):
    build = FIGURES[args.figure_id][0]
    return build(_figure_parameters(args)), {**_base_meta(args), "figure": args.figure_id}


def _figure_parameters(args: argparse.Namespace) -> dict:
    """The figure's ``FIGURES`` defaults with each given flag in place.  A
    flag parses like its default: a list where the default is a sequence,
    exactly one value where it is a scalar."""
    command = f"figure {args.figure_id}"
    defaults = FIGURES[args.figure_id][1]
    # the override flags that were given: `is not False` because an unset
    # switch is False, and `--sources 0` == False is given
    given = {flag: value for flag, value in vars(args).items()
             if flag not in ("command", "format", "out", "figure_id")
             and value is not None and value is not False}
    unknown = given.keys() - defaults.keys()
    if unknown:
        flags = ", ".join("--" + flag.replace("_", "-") for flag in sorted(unknown))
        raise UsageError(f"{args.figure_id} does not accept override {flags}")
    parameters = dict(defaults)
    for flag, value in given.items():
        name = "--" + flag.replace("_", "-")
        if flag == "t":
            values = _parse_t_values(value)
        elif flag == "nbar":
            values = [SourceModel(x).mean_photon_number for x in _parse_float_list(value, name)]
        elif flag.startswith("eta"):  # --eta is text, --eta-d/-s/-f floats
            values = [_efficiency(x, None, name)
                      for x in (_parse_float_list(value, name) if flag == "eta" else [value])]
        elif flag == "sources":
            values = [_check_sources(value)]
        else:  # --detector or --reoptimize
            values = [DetectorKind(value) if flag == "detector" else value]
        scalar = np.ndim(defaults[flag]) == 0
        parameters[flag] = _single(values, name, value, command) if scalar else values
    return parameters


# ---------------------------------------------------------------------------
# figure dataset builders: each maps its figure's parameters (see
# _figure_parameters) to a table


def _trains(kind: DetectorKind, nbars, eta_d, taus) -> ClosedForm:
    """Closed forms of constant-pump trains, one per entry of ``nbars``;
    the train length is the last axis of the loss chain ``taus``."""
    pumps = np.repeat(np.asarray(nbars, dtype=float)[..., None], taus.shape[-1], axis=-1)
    return closed_form(pumps, eta_d, taus, kind)


def _eta_chain(eta: float, t: int) -> np.ndarray:
    """Loss chain with switch and fibre efficiency both ``eta``."""
    return transmission(LossModel(eta, eta), np.arange(t))


def _template(kind: DetectorKind, eta: float, t: int) -> ProtocolConfig:
    """An optimizer's template: t bins, every efficiency ``eta``."""
    return ProtocolConfig(t, ConstantPump(1.0), DetectorModel(kind, eta), LossModel(eta, eta))


def _fig2(p: dict):
    ts = p["t"]
    table: dict = {"time_bins": list(ts)}
    for kind in DetectorKind:
        # the herald probability does not depend on the loss chain
        result = _trains(kind, p["nbar"], p["eta_d"], np.ones(ts[-1]))
        table[f"herald_{kind.value}"] = result.by_length(ts)[0]
    return table


def _fig3(p: dict):
    ts, etas = p["t"], p["etas"]
    taus = np.stack([_eta_chain(eta, ts[-1]) for eta in etas])
    table: dict = {"time_bins": list(ts)}
    for kind in DetectorKind:
        nbars = []
        for eta in etas:
            nbar = p[f"nbar_{kind.value}"][eta]
            if p["reoptimize"]:
                template = _template(kind, eta, ts[-1])
                nbar = optimize_constant(template, Objective.CONDITIONAL).schedule.mean_photon_number
            nbars.append(nbar)
        result = _trains(kind, nbars, np.array(etas)[:, None], taus)
        herald, _, fidelity = result.by_length(ts)
        for i, eta in enumerate(etas):  # fidelity and herald of each eta, interleaved
            table[f"fidelity_{kind.value}_eta{eta:g}"] = _given_herald(fidelity[:, i], herald[:, i])
            table[f"herald_{kind.value}_eta{eta:g}"] = herald[:, i]
    return table


def _fig5(p: dict):
    nbars, etas = p["nbar"], p["eta_ds"][:, None]  # rows of the grid
    table = {"eta_d": np.repeat(etas, len(nbars)), "nbar": np.tile(nbars, len(etas))}
    for kind in DetectorKind:
        table[f"fidelity_{kind.value}"] = _bin_law(nbars, etas, _bin_rows(etas, 1.0, kind))[2].ravel()
    return table


def _fig6(p: dict):
    nbars, ts = p["nbar"], p["t"]
    table = {"nbar": np.array(nbars)}
    for kind in DetectorKind:
        for eta in p["etas"]:
            result = _trains(kind, nbars, eta, _eta_chain(eta, ts[-1]))
            for t, values in zip(ts, result.by_length(ts)[1]):
                table[f"unconditional_{kind.value}_eta{eta:g}_t{t}"] = values
    return table


def _fig7(p: dict):
    nbars, etas = p["nbar"], p["eta"]
    table = {"nbar": np.repeat(nbars, len(etas)), "eta": np.tile(etas, len(nbars))}
    for kind in DetectorKind:
        # one kernel call per eta: rows eta, columns nbar; the table runs nbar-major
        values = np.array([_trains(kind, nbars, eta, _eta_chain(eta, p["t"])).unconditional
                           for eta in etas])
        table[f"unconditional_{kind.value}"] = values.T.ravel()
    return table


def _fig8(p: dict):
    ts = list(p["t"])
    table: dict = {"time_bins": ts}
    for eta in p["etas"]:
        # every train length is a head of the longest train
        template = _template(DetectorKind.BUCKET, eta, ts[-1])
        for name, heads in (("constant", _constant_heads), ("biased", _schedule_heads)):
            results = heads(template, Objective.UNCONDITIONAL, ts)
            table[f"{name}_eta{eta:g}"] = np.array([result.objective_value for result in results])
    return table


def _fig9(p: dict):
    t = p["t"]
    single = herald_single_shot(SourceModel(p["nbar"]), DetectorModel(p["detector"], p["eta"]))
    # loop == t is the no-herald row
    table: dict = {"loop": list(range(t + 1))}
    for m in range(1, p["sources"] + 1):
        table[f"p_m{m}"] = np.array(m_source_distribution(single, t, m).probabilities)
    return table


def _fig10(p: dict):
    nbars, etas = p["nbar"], p["etas"]
    # axes eta, nbar, loop
    taus = np.stack([_eta_chain(eta, p["t"]) for eta in etas])[:, None, :]
    table = {"nbar": np.repeat(nbars, len(etas)), "eta": np.tile(etas, len(nbars))}
    # one kernel call per chunk of etas, so that its arrays stay bounded
    step = max(1, _KERNEL_CELLS // (len(nbars) * p["t"]))
    for kind in DetectorKind:
        columns = {m: [] for m in p["source_counts"]}
        for i in range(0, len(etas), step):
            result = _trains(kind, nbars, etas[i:i + step, None, None], taus[i:i + step])
            for m, blocks in columns.items():
                blocks.append(_parallel_train(result.single_shot, result.per_loop, m).unconditional)
        for m, blocks in columns.items():
            # the table runs nbar-major
            table[f"unconditional_{kind.value}_m{m}"] = np.concatenate(blocks).T.ravel()
    return table


def _fig11(p: dict):
    ts = p["t"]
    taus = transmission(LossModel(p["eta_s"], p["eta_f"]), np.arange(ts[-1]))
    table: dict = {"time_bins": list(ts)}
    for kind in DetectorKind:
        herald, _, fidelity = _trains(kind, p["nbar"], p["eta_d"], taus).by_length(ts)
        table[f"herald_{kind.value}"] = herald
        table[f"fidelity_{kind.value}"] = _given_herald(fidelity, herald)
    return table


_NBAR_GRID = np.linspace(0.05, 2.0, 40)  # fig7 and fig10
# Most cells (eta x nbar x bin) of one fig10 kernel call, ~137 bytes each at
# its peak: fig10 --t 100000, one eta a call, peaks at ~0.6 GB, not ~14 GB.
_KERNEL_CELLS = 1 << 20
_ETA_GRID = np.linspace(0.5, 1.0, 26)

# Standard figure datasets: the builder and its parameters, each flag's
# default under the flag's name; the figure accepts exactly those flags.
FIGURES: dict[str, tuple] = {
    "fig2": (_fig2, {"t": range(1, 51), "nbar": 1.0, "eta_d": 1.0}),
    "fig3": (_fig3, {
        "t": range(1, 51),
        "reoptimize": False,
        "etas": (1.0, 0.99, 0.95),
        "nbar_resolved": {1.0: 1.0, 0.99: 0.90, 0.95: 0.95},
        "nbar_bucket": {1.0: 0.05, 0.99: 0.14, 0.95: 0.34},
    }),
    "fig5": (_fig5, {"nbar": (0.01, 0.1, 0.5, 1.0, 2.0), "eta_ds": np.linspace(0.0, 1.0, 101)}),
    "fig6": (_fig6, {
        "nbar": np.linspace(0.02, 3.0, 150),
        "t": (1, 2, 4, 8, 16, 32, 64),
        "etas": (1.0, 0.99, 0.95),
    }),
    "fig7": (_fig7, {"t": 100, "nbar": _NBAR_GRID, "eta": _ETA_GRID}),
    "fig8": (_fig8, {"t": range(1, 9), "etas": (0.99, 0.95)}),
    "fig9": (_fig9,
             {"t": 10, "nbar": 0.1, "eta": 0.95, "sources": 4, "detector": DetectorKind.BUCKET}),
    "fig10": (_fig10, {"t": 5, "nbar": _NBAR_GRID, "etas": _ETA_GRID, "source_counts": (1, 4)}),
    "fig11": (_fig11,
              {"t": range(1, 51), "nbar": 0.5, "eta_d": 0.8, "eta_s": 0.8, "eta_f": 1.0}),
}
# fig4 re-plots fig3's dataset against loop count
FIGURES["fig4"] = FIGURES["fig3"]

_COMMANDS = {
    "herald": _cmd_herald,
    "fidelity": _cmd_fidelity,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "parallel": _cmd_parallel,
    "figure": _cmd_figure,
    "feasibility": _cmd_feasibility,
}


# ---------------------------------------------------------------------------
# rendering: a block of rows at a time, to the bytes of a row-wise
# csv.writer and of json.dumps(indent=2)


# Blocks bound the Python cells and strings alive at once.  A block of an
# array column of at least _DISTINCT_MIN_ROWS rows, at most half of them
# distinct, formats each distinct value once; a shorter or more varied
# block formats every cell, since finding the distinct values would cost
# more than it saves.
_CSV_BLOCK_ROWS = 1024
_DISTINCT_MIN_ROWS = 256


def _first_non_finite(table: dict) -> str | None:
    """The column of the first non-finite cell in row-major order."""
    first: tuple[int, str] | None = None
    for name, column in table.items():
        if isinstance(column, np.ndarray):
            finite = np.isfinite(column)
            row = None if finite.all() else int(np.argmin(finite))
        else:
            row = next((row for row, cell in enumerate(column)
                        if isinstance(cell, float) and not math.isfinite(cell)), None)
        if row is not None and (first is None or row < first[0]):
            first = (row, name)
    return None if first is None else first[1]


def _blocks(column):
    """The column's blocks of ``_CSV_BLOCK_ROWS`` rows, in order."""
    return (column[start:start + _CSV_BLOCK_ROWS]
            for start in range(0, len(column), _CSV_BLOCK_ROWS))


def _distinct_formatted(block: np.ndarray, form) -> list[str] | None:
    """The cells of an array block as ``form`` writes them, in row order,
    from one ``form`` call per distinct value; None where the block keeps
    the cell-by-cell path.  Floats are compared by bit pattern, which
    keeps 0.0 and -0.0 apart."""
    if len(block) < _DISTINCT_MIN_ROWS or block.dtype not in (np.float64, np.int64):
        return None
    distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
    if 2 * len(distinct) > len(block):
        return None
    strings = [form(value) for value in distinct.view(block.dtype).tolist()]
    return np.array(strings, dtype=object)[inverse].tolist()


def _csv_field(cell) -> str:
    """One list cell as the row-wise writer emits it."""
    if cell is None:
        return "undefined"
    if isinstance(cell, bool):
        return str(cell).lower()
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return "%.17g" % cell
    # csv's quoting; the trailing empty field keeps a lone "" unquoted
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([cell, ""])
    return buffer.getvalue()[:-2]


def _render_csv(table: dict) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(table)
    lone = len(table) == 1  # the writer quotes a row's lone empty field
    for blocks in zip(*map(_blocks, table.values())):
        cells, forms = [], []
        for block in blocks:
            if not isinstance(block, np.ndarray):
                fields = [_csv_field(cell) for cell in block]
                cells.append([field or '""' for field in fields] if lone else fields)
                forms.append("%s")
            elif (strings := _distinct_formatted(block, "%.17g".__mod__)) is not None:
                cells.append(strings)
                forms.append("%s")
            else:
                cells.append(block.tolist())
                forms.append("%.17g")
        template = ",".join(forms) + "\n"
        buffer.writelines(template % row for row in zip(*cells))
    return buffer.getvalue()


# one cell per line, at the depth indent=2 gives a column's cells
_JSON_CELL_SEPARATOR = ",\n      "


def _json_cells(block) -> str:
    """A block's cells as json.dumps writes them, joined one per line;
    ``repr`` writes a finite float or an int as json.dumps does."""
    if isinstance(block, np.ndarray):
        strings = _distinct_formatted(block, repr)
        if strings is not None:
            return _JSON_CELL_SEPARATOR.join(strings)
        block = block.tolist()
    return json.dumps(block, separators=(_JSON_CELL_SEPARATOR, ": "))[1:-1]


def _render_json(table: dict, meta: dict) -> str:
    columns = []
    for name, column in table.items():
        cells = _JSON_CELL_SEPARATOR.join(map(_json_cells, _blocks(column)))
        body = f"[\n      {cells}\n    ]" if len(column) else "[]"
        columns.append(f"    {json.dumps(name)}: {body}")
    meta_text = json.dumps(meta, indent=2).replace("\n", "\n  ")
    return ('{\n  "meta": ' + meta_text + ',\n  "columns": {\n'
            + ",\n".join(columns) + "\n  }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
