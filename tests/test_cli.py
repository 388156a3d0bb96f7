import argparse
import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import exact
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loopsource
from loopsource import (
    ConstantPump,
    DetectorKind,
    DetectorModel,
    LossModel,
    Objective,
    ProtocolConfig,
    SourceModel,
    conditional_fidelity,
    fidelity_report,
    herald_single_shot,
    herald_train,
    optimize_constant,
    optimize_schedule,
    unconditional_fidelity,
)
from loopsource import analytic, cli
from loopsource.analytic import ClosedForm, closed_form
from loopsource.cli import FIGURES, assess_feasibility, main
from loopsource.models import transmission


def run_cli(args, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_sweep_train_column_is_geometric(tmp_path):
    code, text = run_cli(
        ["sweep", "--t", "1..8", "--nbar", "1", "--eta-d", "1", "--detector", "bucket"],
        tmp_path,
    )
    assert code == 0
    header, rows = read_csv(text)
    t_col = header.index("time_bins")
    train_col = header.index("train")
    for row in rows:
        t = int(row[t_col])
        assert float(row[train_col]) == pytest.approx(1.0 - 2.0**-t, rel=1e-15)

    # The builders evaluate whole grid rows in one kernel call; every cell
    # equals the scalar API bit for bit.
    code, text = run_cli(
        ["sweep", "--t", "1..12", "--nbar", "0,0.07,1.3", "--eta-d", "0.8",
         "--eta-s", "0.9", "--eta-f", "0.95", "--detector", "resolved"],
        tmp_path, "lossy.csv",
    )
    assert code == 0
    header, rows = read_csv(text)
    detector = DetectorModel(DetectorKind.NUMBER_RESOLVED, 0.8)
    for row in rows[::5]:
        cells = dict(zip(header, row))
        t, source = int(cells["time_bins"]), SourceModel(float(cells["nbar"]))
        config = ProtocolConfig(t, ConstantPump(source.mean_photon_number), detector,
                                LossModel(0.9, 0.95))
        assert float(cells["single_shot"]) == herald_single_shot(source, detector)
        assert float(cells["train"]) == herald_train(source, detector, t)
        assert float(cells["unconditional"]) == unconditional_fidelity(config)
        if source.mean_photon_number == 0.0:
            assert cells["conditional"] == "undefined"
        else:
            assert float(cells["conditional"]) == conditional_fidelity(config)

    code, text = run_cli(["figure", "fig6", "--nbar", "0.02,0.9,3", "--t", "3..5"],
                         tmp_path, "fig6.csv")
    assert code == 0
    header, rows = read_csv(text)
    for row in rows:
        nbar = float(row[0])
        for column, cell in zip(header[1:], row[1:]):
            _, kind, eta, t = column.split("_")
            eta, t = float(eta.removeprefix("eta")), int(t.removeprefix("t"))
            config = ProtocolConfig(t, ConstantPump(nbar), DetectorModel(DetectorKind(kind), eta),
                                    LossModel(eta, eta))
            assert float(cell) == unconditional_fidelity(config)


def test_simulate_runs_are_byte_identical(tmp_path):
    args = ["simulate", "--nbar", "0.5", "--t", "3", "--eta", "0.9",
            "--trials", "20000", "--seed", "7"]
    code_a, text_a = run_cli(args, tmp_path, "a.csv")
    code_b, text_b = run_cli(args, tmp_path, "b.csv")
    assert code_a == code_b == 0
    assert text_a == text_b
    assert "herald_rate" in text_a


def test_csv_round_trip_is_byte_stable(tmp_path):
    code, text = run_cli(["figure", "fig2"], tmp_path)
    assert code == 0
    header, rows = read_csv(text)

    def retype(cell):
        try:
            return int(cell)
        except ValueError:
            pass
        try:
            return float(cell)
        except ValueError:
            return cell

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        out = []
        for cell in row:
            value = retype(cell)
            if isinstance(value, float):
                out.append(format(value, ".17g"))
            else:
                out.append(str(value))
        writer.writerow(out)
    assert buffer.getvalue() == text


def test_json_output_carries_meta_and_null(tmp_path):
    code, text = run_cli(
        ["simulate", "--nbar", "0", "--t", "2", "--trials", "50",
         "--format", "json"],
        tmp_path,
        "out.json",
    )
    assert code == 0
    data = json.loads(text)
    assert data["meta"]["command"] == "simulate"
    assert data["meta"]["seed"] == 0
    assert "version" in data["meta"]
    assert data["meta"]["parameters"]["nbar"] == "0"
    # a run that never heralds has no conditional fidelity
    assert data["columns"]["conditional_fidelity"] == [None]
    assert data["columns"]["herald_rate"] == [0.0]


def test_undefined_sentinel_in_csv(tmp_path):
    code, text = run_cli(
        ["simulate", "--nbar", "0", "--t", "2", "--trials", "50"], tmp_path
    )
    assert code == 0
    header, rows = read_csv(text)
    assert rows[0][header.index("conditional_fidelity")] == "undefined"


def test_fidelity_command_reports_per_loop_rows(tmp_path):
    code, text = run_cli(
        ["fidelity", "--nbar", "0.5", "--t", "3", "--eta", "0.9"], tmp_path
    )
    assert code == 0
    header, rows = read_csv(text)
    assert len(rows) == 3
    fid_col = header.index("loop_fidelity")
    values = [float(r[fid_col]) for r in rows]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("nbar", [0.5, 0.0])
def test_fidelity_command_reads_one_closed_form(nbar, tmp_path):
    # at eta_s = 0.8, eta_f = 0.909 a per-loop scalar transmission(loss, 2)
    # differs in the last bit from the kernel's array chain
    args = ["fidelity", "--nbar", repr(nbar), "--t", "3", "--eta-d", "0.9",
            "--eta-s", "0.8", "--eta-f", "0.909", "--format", "json"]
    code, text = run_cli(args, tmp_path, "out.json")
    assert code == 0
    columns = json.loads(text)["columns"]
    loss = LossModel(0.8, 0.909)
    taus = transmission(loss, np.arange(3))
    result = closed_form(np.full(3, nbar), 0.9, taus, DetectorKind.BUCKET)
    assert columns["transmission"] == taus.tolist()
    assert columns["unconditional"] == [float(result.unconditional)] * 3
    if nbar == 0.0:
        assert columns["loop_fidelity"] == columns["conditional"] == [None] * 3
        assert columns["unconditional"] == [0.0] * 3
    else:
        assert columns["loop_fidelity"] == result.per_loop.tolist()
        assert columns["conditional"] == [float(result.conditional)] * 3


def test_chronological_flag_flips_schedule_interpretation(tmp_path):
    code_a, text_a = run_cli(
        ["herald", "--nbar", "0.1,0.2,0.3", "--t", "3"], tmp_path, "a.csv"
    )
    code_b, text_b = run_cli(
        ["herald", "--nbar", "0.3,0.2,0.1", "--t", "3", "--chronological"],
        tmp_path,
        "b.csv",
    )
    assert code_a == code_b == 0
    _, rows_a = read_csv(text_a)
    _, rows_b = read_csv(text_b)
    assert rows_a == rows_b[::-1]


def test_fidelity_chronological_rows_run_in_firing_order(tmp_path):
    # as herald's do: the rows flip with the schedule, so the nbar column
    # reads the list as given and the loop counts run t-1..0
    code_a, text_a = run_cli(["fidelity", "--nbar", "0.1,0.2,0.3", "--t", "3"], tmp_path, "a.csv")
    code_b, text_b = run_cli(
        ["fidelity", "--nbar", "0.3,0.2,0.1", "--t", "3", "--chronological"], tmp_path, "b.csv"
    )
    assert code_a == code_b == 0
    _, rows_a = read_csv(text_a)
    _, rows_b = read_csv(text_b)
    assert rows_a == rows_b[::-1]
    assert [row[0] for row in rows_b] == ["2", "1", "0"]
    assert [float(row[1]) for row in rows_b] == [0.3, 0.2, 0.1]


def test_histogram_mode_rows(tmp_path):
    code, text = run_cli(
        ["simulate", "--nbar", "0.5", "--t", "3", "--trials", "1000",
         "--histogram"],
        tmp_path,
    )
    assert code == 0
    header, rows = read_csv(text)
    assert header == ["loop", "count", "frequency"]
    assert len(rows) == 4
    assert sum(int(r[1]) for r in rows) == 1000


def test_parallel_command_summary(tmp_path):
    code, text = run_cli(
        ["parallel", "--nbar", "0.5", "--t", "3", "--sources", "3",
         "--trials", "2000", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    header, rows = read_csv(text)
    assert rows[0][header.index("sources")] == "3"


def test_optimize_biased_emits_one_row_per_bin(tmp_path):
    code, text = run_cli(
        ["optimize", "--t", "3", "--eta", "0.95", "--biased"], tmp_path
    )
    assert code == 0
    header, rows = read_csv(text)
    assert len(rows) == 3
    nbar_col = header.index("nbar")
    loops_col = header.index("loops_before_output")
    by_loop = {int(r[loops_col]): float(r[nbar_col]) for r in rows}
    assert by_loop[2] > by_loop[1] > by_loop[0]


@pytest.mark.parametrize("biased", [[], ["--biased"]])
def test_optimize_rejects_unbounded_pump_levels(biased, capsys):
    assert main(["optimize", "--t", "3", "--nbar-max", "inf"] + biased) == 2
    assert "bounds must satisfy 0 < lo < hi < inf" in capsys.readouterr().err


def test_optimize_ends_at_bounds_finer_than_an_absolute_tolerance():
    # an absolute 1e-6 bracket is below the spacing of doubles at 1e12,
    # so a search that waits for one never returns
    args = ["optimize", "--t", "3", "--eta", "0.9", "--nbar-min", "1e12", "--nbar-max", "1e15"]
    assert _run_in_child(args, timeout=60).returncode == 0


def test_optimize_ignores_candidates_that_overflow(tmp_path):
    # bounds up to 1e200 leave the optimum near 1 alone (the closed forms
    # once overflowed to NaN there)
    args = ["optimize", "--t", "3", "--eta", "0.9"]
    _, text = run_cli(args + ["--biased", "--nbar-max", "1e100"], tmp_path, "a.csv")
    _, overflow = run_cli(args + ["--biased", "--nbar-max", "1e200"], tmp_path, "b.csv")
    assert overflow == text
    # the constant scan's grid follows the bounds, so its last bits may
    # differ; the level agrees to the search tolerance
    rows = [read_csv(run_cli(args + ["--nbar-max", top], tmp_path, f"{top}.csv")[1])
            for top in ("1e100", "1e200")]
    header, (near,), (far,) = rows[0][0], rows[0][1], rows[1][1]
    nbar, value = header.index("nbar"), header.index("value")
    assert float(far[nbar]) == pytest.approx(float(near[nbar]), rel=1e-6)
    assert float(far[value]) == pytest.approx(float(near[value]), rel=1e-14)
    assert 0.5 < float(near[nbar]) < 1.0


@pytest.mark.parametrize("biased", [[], ["--biased"]])
def test_optimize_over_bounds_past_the_old_overflow_is_finite_and_exact(biased, tmp_path):
    # every candidate above ~6e102 used to overflow to NaN: the constant
    # scan exited 3 and the per-bin step exited 2 with numpy's message
    args = ["optimize", "--t", "3", "--nbar-min", "1e150", "--nbar-max", "1e160"]
    code, text = run_cli(args + biased, tmp_path)
    assert code == 0
    header, rows = read_csv(text)
    cells = [dict(zip(header, row)) for row in rows]
    nbars = [float(row["nbar"]) for row in cells]
    if not biased:
        nbars *= 3
    assert all(1e150 <= nbar <= 1e160 for nbar in nbars)
    _, _, unconditional = exact.train(nbars, 1.0, [1.0] * 3, DetectorKind.BUCKET)
    assert exact.within_rel(float(cells[0]["value"]), unconditional, 1e-14)


def test_feasibility_reference_points():
    ghz = assess_feasibility(1e9)
    assert ghz.fibre_length == pytest.approx(2.0, abs=0.1)
    assert ghz.net_transmission == pytest.approx(0.086, abs=0.001)
    assert assess_feasibility(80e6).fibre_length == pytest.approx(2.6, abs=0.1)
    assert assess_feasibility(1e5).fibre_transmission == pytest.approx(0.91, abs=0.01)


def test_feasibility_command_output(tmp_path):
    code, text = run_cli(["feasibility", "--rate", "1e9"], tmp_path)
    assert code == 0
    header, rows = read_csv(text)
    assert float(rows[0][header.index("fibre_length")]) == pytest.approx(2.04, abs=0.01)


def test_fig2_first_row_and_regeneration(tmp_path):
    code_a, text_a = run_cli(["figure", "fig2"], tmp_path, "a.csv")
    code_b, text_b = run_cli(["figure", "fig2"], tmp_path, "b.csv")
    assert code_a == code_b == 0
    assert text_a == text_b
    header, rows = read_csv(text_a)
    assert header == ["time_bins", "herald_resolved", "herald_bucket"]
    assert len(rows) == 50
    assert float(rows[0][1]) == pytest.approx(0.25)
    assert float(rows[0][2]) == pytest.approx(0.5)


def test_fig11_rows_trade_fidelity_for_herald_rate(tmp_path):
    code, text = run_cli(["figure", "fig11"], tmp_path)
    assert code == 0
    header, rows = read_csv(text)
    herald_col = header.index("herald_bucket")
    fid_col = header.index("fidelity_bucket")
    heralds = [float(r[herald_col]) for r in rows]
    fidelities = [float(r[fid_col]) for r in rows]
    assert all(b > a for a, b in zip(heralds, heralds[1:]))
    assert all(b < a for a, b in zip(fidelities, fidelities[1:]))


def test_fig7_bucket_beats_resolved_at_low_efficiency(tmp_path):
    code, text = run_cli(
        ["figure", "fig7", "--nbar", "1", "--eta", "0.6"], tmp_path
    )
    assert code == 0
    header, rows = read_csv(text)
    resolved = float(rows[0][header.index("unconditional_resolved")])
    bucket = float(rows[0][header.index("unconditional_bucket")])
    assert bucket > resolved


def _json_columns(args, tmp_path):
    code, text = run_cli(args + ["--format", "json"], tmp_path, "out.json")
    assert code == 0
    return json.loads(text)["columns"]


def test_fig10_single_source_columns_are_the_one_source_closed_form(tmp_path):
    """The m = 1 bank goes through the m-source law; it must agree with the
    one-source kernel to the last bits."""
    columns = _json_columns(["figure", "fig10"], tmp_path)
    t = FIGURES["fig10"][1]["t"]
    for kind in DetectorKind:
        worst = 0.0
        cells = zip(columns["nbar"], columns["eta"], columns[f"unconditional_{kind.value}_m1"])
        for nbar, eta, value in cells:
            config = ProtocolConfig(
                t, ConstantPump(nbar), DetectorModel(kind, eta), LossModel(eta, eta)
            )
            expected = unconditional_fidelity(config)
            worst = max(worst, abs(value - expected) / expected)
        assert worst <= 1e-15, kind


@pytest.mark.parametrize("argv, calls", [
    (["sweep", "--t", "1..50", "--nbar", "0.1,0.5,2"], 1),
    (["figure", "fig2"], 2),
    (["figure", "fig3"], 2),
    (["figure", "fig6"], 6),
    (["figure", "fig10"], 2),
    (["figure", "fig11"], 2),
])
def test_builders_read_every_train_length_from_one_kernel_call(argv, calls, monkeypatch, tmp_path):
    """A train-length series makes one kernel call per curve family (fig6:
    per detector and eta) and reads its shorter trains as heads."""
    kernel, made = analytic._closed_form_rows, []

    def counted(*args):
        made.append(args)
        return kernel(*args)

    monkeypatch.setattr(analytic, "_closed_form_rows", counted)
    code, _ = run_cli(argv, tmp_path)
    assert code == 0
    assert len(made) == calls


@pytest.mark.parametrize("budget, chunks", [(1, 26), (3000, 2)])
def test_fig10_in_chunks_of_etas_renders_the_bytes_of_one_call(budget, chunks, monkeypatch,
                                                                tmp_path):
    """fig10 bounds each kernel call's [eta, nbar, bin] arrays by a cell
    budget (a single call at --t 100000 needed ~14 GB); every chunking of
    its 26 etas renders the same bytes."""
    whole = run_cli(["figure", "fig10"], tmp_path, "whole")
    kernel, made = analytic._closed_form_rows, []

    def counted(*args):
        made.append(args)
        return kernel(*args)

    monkeypatch.setattr(cli, "_KERNEL_CELLS", budget)
    monkeypatch.setattr(analytic, "_closed_form_rows", counted)
    assert run_cli(["figure", "fig10"], tmp_path, "chunked") == whole
    assert len(made) == 2 * chunks


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [
    ["figure", "fig2"],
    ["figure", "fig3"],
    ["figure", "fig6"],
    ["figure", "fig11"],
    # nbar 0 never heralds: its conditional cells are undefined
    ["sweep", "--detector", "resolved", "--t", "1..130", "--nbar", "0,0.07,1.3"],
], ids=" ".join)
def test_train_length_series_render_the_bytes_of_one_head_per_length(args, fmt, monkeypatch,
                                                                      tmp_path):
    argv = args + ["--format", fmt]
    series = run_cli(argv, tmp_path, "series")
    assert series[0] == 0
    command, read = cli._COMMANDS[args[0]], []

    def one_head_per_length(self, ts):
        heads = [ClosedForm(*(field[..., :t] for field in self)) for t in ts]
        read.append(tuple(np.array([getattr(head, name) for head in heads])
                          for name in ("herald", "unconditional", "conditional")))
        return read[-1]

    def per_head_table(parsed):
        # every column a list of Python cells; the sweep's conditional cells
        # None where the train cannot herald
        table, meta = command(parsed)
        table = {name: column.tolist() if isinstance(column, np.ndarray) else column
                 for name, column in table.items()}
        if args[0] == "sweep":
            herald, _, conditional = (grid.ravel().tolist() for grid in read[0])
            table["conditional"] = [value if train > 0.0 else None
                                    for value, train in zip(conditional, herald)]
        return table, meta

    monkeypatch.setattr(ClosedForm, "by_length", one_head_per_length)
    monkeypatch.setitem(cli._COMMANDS, args[0], per_head_table)
    assert run_cli(argv, tmp_path, "heads") == series


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags", [[], ["--t", "3,5,9"]], ids=["default", "t-list"])
def test_fig8_renders_the_bytes_of_one_optimization_per_length(flags, fmt, monkeypatch,
                                                               tmp_path):
    argv = ["figure", "fig8", *flags, "--format", fmt]
    stacked = run_cli(argv, tmp_path, "stacked")
    assert stacked[0] == 0
    defaults = FIGURES["fig8"][1]

    def one_optimization_per_length(p):
        table: dict = {"time_bins": list(p["t"])}
        for eta in p["etas"]:
            detector, loss = DetectorModel(DetectorKind.BUCKET, eta), LossModel(eta, eta)
            for name, optimize in (("constant", optimize_constant),
                                   ("biased", optimize_schedule)):
                table[f"{name}_eta{eta:g}"] = [
                    optimize(ProtocolConfig(t, ConstantPump(1.0), detector, loss),
                             Objective.UNCONDITIONAL).objective_value
                    for t in p["t"]]
        return table

    monkeypatch.setitem(FIGURES, "fig8", (one_optimization_per_length, defaults))
    assert run_cli(argv, tmp_path, "per-length") == stacked


@pytest.mark.parametrize("args, undefined", [
    ("sweep --t 1..9 --nbar 0.07,1.3", False),
    ("sweep --t 1..9 --nbar 0,1.3", True),
    ("fidelity --t 4 --nbar 0.5", False),
    ("fidelity --t 4 --nbar 0", True),
])
def test_conditional_column_is_a_list_only_where_a_cell_is_undefined(args, undefined):
    argv = args.split()
    table, _ = cli._COMMANDS[argv[0]](cli._parser().parse_args(argv))
    assert isinstance(table["conditional"], list) is undefined
    assert (None in table["conditional"]) is undefined


def _as_flag(value) -> str:
    """A figure default written as its flag's text."""
    if isinstance(value, range):
        return f"{value[0]}..{value[-1]}"
    if isinstance(value, DetectorKind):
        return value.value
    return ",".join(repr(x) for x in np.atleast_1d(value).tolist())


# the figure flags: every parsed name but the output flags and the id
_FIGURE_FLAGS = vars(cli._parser().parse_args(["figure", "fig2"])).keys() - {
    "command", "format", "out", "figure_id"}
_DEFAULT_FLAGS = [(figure, flag) for figure, (_, defaults) in sorted(FIGURES.items())
                  for flag in sorted(defaults.keys() & _FIGURE_FLAGS - {"reoptimize"})]


@pytest.mark.parametrize("figure, flag", _DEFAULT_FLAGS)
def test_figure_flag_at_its_default_reproduces_the_dataset(figure, flag, tmp_path):
    """A flag parses like its default, so each default is a valid flag value
    and gives back the default dataset byte for byte."""
    default = FIGURES[figure][1][flag]
    plain = run_cli(["figure", figure], tmp_path, "plain.csv")
    given = run_cli(["figure", figure, "--" + flag.replace("_", "-"), _as_flag(default)],
                    tmp_path, "given.csv")
    assert given == plain
    assert plain[0] == 0


def test_fig3_reoptimize_uses_each_curves_conditional_optimum(tmp_path):
    args = ["figure", "fig3", "--t", "1..3"]
    plain = _json_columns(args, tmp_path)
    columns = _json_columns(args + ["--reoptimize"], tmp_path)
    assert columns["time_bins"] == [1, 2, 3]
    for kind in DetectorKind:
        for eta in FIGURES["fig3"][1]["etas"]:
            detector, loss = DetectorModel(kind, eta), LossModel(eta, eta)
            template = ProtocolConfig(3, ConstantPump(1.0), detector, loss)
            nbar = optimize_constant(template, Objective.CONDITIONAL).schedule.mean_photon_number
            label = f"{kind.value}_eta{eta:g}"
            for row, t in enumerate(columns["time_bins"]):
                report = fidelity_report(ProtocolConfig(t, ConstantPump(nbar), detector, loss))
                assert columns[f"herald_{label}"][row] == report.herald_probability
                assert columns[f"fidelity_{label}"][row] == report.conditional
    # the flag did change the pump levels
    assert any(plain[name] != values for name, values in columns.items())


_BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_layer_functions_are_bound_on_cli():
    """bench/tracing.py wraps each name of its LAYER_FUNCTIONS where
    loopsource.cli binds it; a missing name breaks `bench/run.py --trace 1`."""
    tree = ast.parse((_BENCH / "tracing.py").read_text())
    layers = next(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "LAYER_FUNCTIONS"
    )
    names = [name for group in ast.literal_eval(layers).values() for name in group]
    assert "main" in names
    assert [name for name in names if not callable(getattr(cli, name, None))] == []


@pytest.mark.parametrize("script", sorted(path.name for path in _BENCH.glob("*.py")))
def test_bench_imports_from_the_package_exist(script):
    missing = []
    for node in ast.walk(ast.parse((_BENCH / script).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "loopsource":
            module = importlib.import_module(node.module)
            missing += [alias.name for alias in node.names if not hasattr(module, alias.name)]
    assert missing == []


def test_usage_error_on_schedule_length_mismatch(tmp_path, capsys):
    code = main(["herald", "--nbar", "0.1,0.2,0.3", "--t", "2"])
    assert code == 2
    assert "--nbar" in capsys.readouterr().err


_NON_FIGURE = ["herald", "fidelity", "sweep", "optimize", "simulate", "parallel"]


@pytest.mark.parametrize("argv", [
    ["herald", "--eta-d", "1.5"],
    # these blamed the switch, detector and fibre efficiency
    ["figure", "fig7", "--eta", "1.5"],
    ["figure", "fig9", "--eta", "1.5"],
    ["figure", "fig2", "--eta-d", "1.5"],
    ["figure", "fig11", "--eta-f", "2"],
    # these blamed --eta-d, which --eta had filled in
    *([command, "--eta", "1.5"] for command in _NON_FIGURE),
    # a specific flag that overrides a valid --eta is named itself
    *([command, "--eta", "0.9", "--eta-s", "2"] for command in _NON_FIGURE
      if command != "herald"),
], ids=" ".join)
def test_usage_error_on_out_of_range_efficiency(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[-2]} must lie in [0, 1]")


def test_usage_error_on_figure_override_not_allowed(capsys):
    code = main(["figure", "fig2", "--eta-s", "0.5"])
    assert code == 2
    assert "--eta-s" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["herald", "--t", "100001"],
    ["sweep", "--t", "1,100001"],
    # would not fit in memory if the list were built before the check
    ["figure", "fig3", "--t", "1..100000000000"],
    ["figure", "fig9", "--t", "100000000"],
], ids=" ".join)
def test_usage_error_on_t_beyond_the_longest_train(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --t values must be <= 100000")


def _no_run(*args, **kwargs):
    raise AssertionError("the Monte Carlo ran")


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", str(2**63)],
    ["parallel", "--trials", "1000000000000000000000000000000"],
], ids=" ".join)
def test_usage_error_on_trials_beyond_the_histogram_counts(argv, monkeypatch, capsys):
    # a missing check would walk ~6e25 pages: fail at once if the engine runs
    monkeypatch.setattr(cli, "simulate_parallel_sources", _no_run)
    monkeypatch.setattr(cli, "run_simulation", _no_run)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --trials must be <= {2**63 - 1}, got {argv[2]}\n"


_UNREADABLE_OR_EMPTY = [
    (["sweep", "--nbar", "abc"], "--nbar expects a number or comma list, got 'abc'"),
    (["sweep", "--nbar", ","], "--nbar expects at least one value, got ','"),
    (["simulate", "--trials", "0"], "--trials must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", _UNREADABLE_OR_EMPTY,
                         ids=[" ".join(argv) for argv, _ in _UNREADABLE_OR_EMPTY])
def test_usage_error_on_unreadable_nbar_or_no_trials(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_simulation", _no_run)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", [["--nbar", "0"], ["--eta-d", "0"]], ids=" ".join)
def test_fig11_fidelity_is_undefined_where_nothing_heralds(flag, tmp_path):
    # a fidelity given a herald that cannot happen is undefined, not 0
    code, text = run_cli(["figure", "fig11", *flag], tmp_path)
    assert code == 0
    header, rows = read_csv(text)
    code, text = run_cli(["figure", "fig11", *flag, "--format", "json"], tmp_path, "out.json")
    assert code == 0
    columns = json.loads(text)["columns"]
    for kind in ("resolved", "bucket"):
        assert {row[header.index(f"herald_{kind}")] for row in rows} == {"0"}
        assert [row[header.index(f"fidelity_{kind}")] for row in rows] == ["undefined"] * 50
        assert columns[f"fidelity_{kind}"] == [None] * 50


def test_trials_bound_admits_the_largest_int64_count():
    cli._check_trials_seed(argparse.Namespace(trials=2**63 - 1, seed=0))  # checked, not run
    with pytest.raises(cli.UsageError, match="--trials must be <= "):
        cli._check_trials_seed(argparse.Namespace(trials=2**63, seed=0))


@pytest.mark.parametrize("argv", [["parallel", "--sources", "65", "--trials", "10"],
                                  ["figure", "fig9", "--sources", "65"]], ids=" ".join)
def test_usage_error_on_sources_beyond_the_bound(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --sources must be <= 64, got 65\n"
    with pytest.raises(cli.UsageError, match="--sources must be <= 64, got 1000000000"):
        cli._check_sources(1_000_000_000)  # checked only: the list alone would take ~8 GB


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the bin probabilities of a long "
                   "rare-herald train miss 1 by more than the 1e-12 check")
def test_fig9_runs_a_long_rare_herald_train(capsys):
    argv = ["figure", "fig9", "--t", "30000", "--nbar", "1e-7", "--eta", "0.1", "--sources", "1"]
    # exits 2: probabilities must sum to 1 within 1e-12, got 0.999999999998824
    assert main(argv) == 0, capsys.readouterr().err


def _help_entries(command: str, capsys) -> dict[str, str]:
    """Each option of ``command --help`` mapped to its entry's text, with
    the whitespace of argparse's layout collapsed."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries: dict[str, list[str]] = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):  # an option's first line
            words = line.split()
            entries[words[0].rstrip(",")] = words
        elif line.startswith("   ") and entries:  # a wrapped line of the last option
            words.extend(line.split())
    return {option: " ".join(words) for option, words in entries.items()}


def test_monte_carlo_flags_read_alike_in_simulate_and_parallel(capsys):
    # parallel --histogram had no help text while simulate's had one
    simulate, parallel = (_help_entries(command, capsys) for command in ("simulate", "parallel"))
    for flag in ("--trials", "--seed", "--histogram"):
        assert simulate[flag] == parallel[flag]


def _csv_of(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, nbar", [
    (["herald", "--t", "1"], "{}"),  # printed 0,-0,-0,0
    (["herald", "--t", "3", "--chronological"], "{},0.5,{}"),
    (["fidelity", "--t", "2", "--eta", "0.9"], "{}"),
    (["sweep", "--t", "1..3"], "0.5,{}"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_negative_zero_pump_level_reads_as_zero_in_commands(argv, nbar, capsys):
    # --nbar=...: a list that starts with a minus sign is not read as a flag
    negative = _csv_of(argv + ["--nbar=" + nbar.format("-0", "-0.0")], capsys)
    assert negative == _csv_of(argv + ["--nbar=" + nbar.format("0", "0")], capsys)
    assert negative[0] == 0 and "-0" not in negative[1]


@pytest.mark.parametrize("argv", [["figure", "fig6", "--t", "1,2"], ["figure", "fig9"]],
                         ids=" ".join)
def test_negative_zero_pump_level_reads_as_zero_in_figures(argv, capsys):
    negative = _csv_of(argv + ["--nbar", "-0"], capsys)
    assert negative == _csv_of(argv + ["--nbar", "0"], capsys)
    assert negative[0] == 0 and "-0" not in negative[1]


def test_usage_error_on_range_t_where_scalar_needed(capsys):
    code = main(["simulate", "--t", "1..5"])
    assert code == 2
    assert "--t" in capsys.readouterr().err


_FLAG_VALUE_ERRORS = [
    # read as int(float): t = 2 ran silently, 0 and -1 raised IndexError,
    # 0.5 named the truncated value
    (["figure", "fig7", "--t", "2.5"], "--t expects"),
    (["figure", "fig9", "--t", "2.5"], "--t expects"),
    (["figure", "fig7", "--t", "0"], "--t values must be >= 1"),
    (["figure", "fig10", "--t", "-1"], "--t values must be >= 1"),
    (["figure", "fig9", "--t", "0.5"], "--t expects"),
    (["figure", "fig2", "--t", "3..5,1"], "--t expects"),
    (["figure", "fig2", "--t", "1..2..3"], "--t expects"),
    # a scalar default takes one value
    (["figure", "fig10", "--t", "1..5"], "--t must be a single value for 'figure fig10'"),
    (["figure", "fig2", "--nbar", "1,2"], "--nbar must be a single value for 'figure fig2'"),
    (["figure", "fig9", "--nbar", "-1"], "mean photon number must be finite and >= 0"),
    # 0 == False: a test for a given flag that compares with False skips it
    (["figure", "fig9", "--sources", "0"], "--sources must be >= 1"),
]


@pytest.mark.parametrize("argv, message", _FLAG_VALUE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in _FLAG_VALUE_ERRORS])
def test_usage_error_on_figure_flag_value(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, quantity", [
    # max(1/rate, nan) dropped the NaN and exited 0
    (["--rate", "1e6", "--detector-rate", "nan"], "detector rate"),
    # these exited 2 but blamed the fibre efficiency
    (["--rate", "nan"], "repetition rate"),
    (["--rate", "1e6", "--group-index", "nan"], "group index"),
    (["--rate", "1e6", "--attenuation", "nan"], "attenuation"),
])
def test_feasibility_rejects_nan_naming_its_quantity(flags, quantity, capsys):
    assert main(["feasibility", *flags]) == 2
    assert quantity in capsys.readouterr().err


def test_numerical_failure_exit_code(capsys):
    # the pulse period 1/rate overflows
    code = main(["feasibility", "--rate", "1e-310"])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite" in err


def test_fig5_at_overflowing_pump_exits_without_traceback(tmp_path):
    # (1 + nbar)**2 on a Python float raised OverflowError here
    code, text = run_cli(["figure", "fig5", "--nbar", "1e200"], tmp_path)
    assert code == 0
    header, rows = read_csv(text)
    for row in rows:
        cells = dict(zip(header, row))
        for name, kind in (("fidelity_resolved", DetectorKind.NUMBER_RESOLVED),
                           ("fidelity_bucket", DetectorKind.BUCKET)):
            reference = exact.bin_law(1e200, float(cells["eta_d"]), 1.0, kind)[1]
            if exact.is_normal(reference):
                assert exact.within_ulps(float(cells[name]), reference)


_WAS_OVERFLOWING = [
    # loop_fidelity read 0 in every cell
    ["fidelity", "--nbar", "1e80", "--t", "3", "--eta", "0.9"],
    # these exited 3
    ["fidelity", "--nbar", "1e103", "--t", "2"],
    ["fidelity", "--nbar", "1e200", "--t", "2"],
    ["sweep", "--nbar", "1e200", "--t", "1"],
    ["sweep", "--nbar", "1e200,0.5", "--t", "1..2"],
    # 0 * inf
    ["fidelity", "--eta-s", "0", "--nbar", "1e200", "--t", "2"],
    # the resolved herald read 0 and its fidelity undefined
    ["herald", "--detector", "resolved", "--nbar", "1e200", "--t", "2"],
    ["fidelity", "--detector", "resolved", "--nbar", "1e200", "--t", "2"],
]


@pytest.mark.parametrize("args", _WAS_OVERFLOWING, ids=" ".join)
def test_huge_pump_levels_are_finite_and_exact(args, tmp_path):
    code, text = run_cli(args, tmp_path)
    assert code == 0
    header, rows = read_csv(text)
    flags = dict(zip(args[1::2], args[2::2]))
    kind = DetectorKind.NUMBER_RESOLVED if "resolved" in args else DetectorKind.BUCKET
    eta = float(flags.get("--eta", 1.0))
    loss = LossModel(float(flags.get("--eta-s", eta)), eta)
    for row in rows:
        cells = dict(zip(header, row))
        t = int(cells.get("time_bins", len(rows)))
        nbar = float(cells["nbar"])
        taus = transmission(loss, np.arange(t))
        per_loop, herald, unconditional = exact.train([nbar] * t, eta, taus, kind)
        assert herald > 0
        single = exact.bin_law(nbar, eta, 1.0, kind)[0]
        expected = {
            "single_shot": single,
            "train": herald,
            "unconditional": unconditional,
            "conditional": unconditional / herald,
        }
        if "loops_before_output" in cells:
            expected["loop_fidelity"] = per_loop[int(cells["loops_before_output"])]
        for name, reference in expected.items():
            if name in cells:
                assert exact.within_rel(float(cells[name]), reference, 1e-14), name
    if "--eta-s" in flags:
        assert {row[header.index("loop_fidelity")] for row in rows} == {"0"}


@pytest.mark.parametrize("args", [
    ["sweep", "--nbar", "-1"],
    ["sweep", "--nbar", "0.5,nan", "--t", "1..2"],
    ["herald", "--nbar", "-1"],
    ["herald", "--nbar", "inf"],
], ids=" ".join)
def test_herald_and_sweep_reject_bad_pump_levels(args, capsys):
    # both read single_shot from the kernel, which would take any double
    assert main(args) == 2
    assert "mean photon number must be finite and >= 0" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    runs = [
        ["herald", "--nbar", "0.5", "--t", "3"],
        ["optimize", "--biased", "--t", "3"],
        ["figure", "fig2", "--t", "1..3"],
    ]
    fresh = []
    for args in runs:
        cli._parser.cache_clear()
        assert main(args) == 0
        fresh.append(capsys.readouterr().out)
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as usage:
        main(["herald", "--no-such-flag"])
    assert usage.value.code == 2
    capsys.readouterr()
    parser = cli._parser()
    reused = []
    for args in runs:
        assert main(args) == 0
        reused.append(capsys.readouterr().out)
    assert cli._parser() is parser
    assert reused == fresh


def _run_in_child(args, **kwargs):
    # the child imports the package from wherever this process found it
    src = str(Path(loopsource.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "loopsource.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def test_bad_subcommand_is_a_usage_error():
    assert _run_in_child(["frobnicate"]).returncode == 2


def test_console_script_entry_point():
    result = subprocess.run(
        ["loopsource", "figure", "fig2", "--t", "1..2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "1,0.25,0.5"


# Renderer oracle: every command's output equals what the stdlib writes
# row by row from the same cells.

_ORACLE_RUNS = [
    *(["figure", fig] for fig in sorted(set(FIGURES) - {"fig8"})),
    ["figure", "fig8", "--t", "1..2"],
    ["sweep", "--nbar", "0,0.5,2", "--t", "1..3", "--eta", "0.9"],
    ["herald", "--nbar", "0.1,0.2,0.3", "--t", "3", "--eta", "0.9"],
    ["fidelity", "--nbar", "0.5", "--t", "3", "--eta", "0.9"],
    ["optimize", "--t", "3", "--eta", "0.95"],
    ["optimize", "--t", "3", "--eta", "0.95", "--biased"],
    ["simulate", "--nbar", "0.5", "--t", "3", "--trials", "2000", "--seed", "5"],
    ["simulate", "--nbar", "0.5", "--t", "3", "--trials", "2000", "--seed", "5", "--histogram"],
    ["simulate", "--nbar", "0", "--t", "2", "--trials", "50"],
    ["parallel", "--nbar", "0.5", "--t", "3", "--sources", "2", "--trials", "2000"],
    ["parallel", "--nbar", "0.5", "--t", "3", "--sources", "2", "--trials", "2000",
     "--histogram"],
    ["parallel", "--nbar", "0", "--t", "2", "--sources", "2", "--trials", "50", "--histogram"],
    ["feasibility", "--rate", "1e9"],
]


def _row_wise_csv(columns: dict) -> str:
    def field(cell):
        if cell is None:
            return "undefined"
        if isinstance(cell, bool):
            return str(cell).lower()
        if isinstance(cell, float):
            return format(cell, ".17g")
        return str(cell)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in zip(*columns.values()):
        writer.writerow([field(cell) for cell in row])
    return buffer.getvalue()


@pytest.mark.parametrize("args", _ORACLE_RUNS, ids=" ".join)
def test_renderers_match_row_wise_stdlib_output(tmp_path, args):
    code, text = run_cli(args + ["--format", "json"], tmp_path, "out.json")
    assert code == 0
    data = json.loads(text)
    assert text == json.dumps(data, indent=2) + "\n"
    code, csv_text = run_cli(args, tmp_path, "out.csv")
    assert code == 0
    assert csv_text == _row_wise_csv(data["columns"])


@pytest.mark.parametrize("args, column", [
    (["feasibility", "--rate", "1e-310"], "bin_separation"),
    (["feasibility", "--rate", "1e-310", "--format", "json"], "bin_separation"),
])
def test_exit_3_names_the_first_non_finite_column(capsys, args, column):
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: non-finite value in column '{column}'\n"


def test_non_finite_check_scans_rows_before_columns(monkeypatch, capsys):
    # column-major order would report "early"; row 0 holds "late"'s inf
    table = {
        "early": np.array([1.0, math.nan]),
        "undefined": [None, None],
        "late": [math.inf, 2.0],
    }
    monkeypatch.setitem(cli._COMMANDS, "feasibility", lambda args: (table, {}))
    assert main(["feasibility", "--rate", "1"]) == 3
    assert capsys.readouterr().err == "error: non-finite value in column 'late'\n"


def test_largest_seed_renders_exactly(tmp_path):
    seed = 2**64 - 1
    args = ["simulate", "--seed", str(seed), "--trials", "10"]
    code, text = run_cli(args, tmp_path)
    assert code == 0
    header, rows = read_csv(text)
    assert rows[0][header.index("seed")] == "18446744073709551615"
    code, text = run_cli(args + ["--format", "json"], tmp_path, "out.json")
    assert code == 0
    data = json.loads(text)
    assert data["meta"]["seed"] == seed
    assert data["columns"]["seed"] == [seed]


def test_renderers_match_stdlib_on_every_cell_kind(monkeypatch, tmp_path):
    # cells no command emits today: bools, strings csv must quote, negatives
    table = {
        "flag": [True, False],
        "label": ["a,b", 'say "hi"'],
        "n": [2**64 - 1, -3],
        "x": np.array([0.1, -0.0]),
        "maybe": [None, 1.5],
    }
    monkeypatch.setitem(cli._COMMANDS, "feasibility", lambda args: (table, {"k": [1]}))
    code, text = run_cli(["feasibility", "--rate", "1", "--format", "json"], tmp_path, "t.json")
    assert code == 0
    data = json.loads(text)
    assert text == json.dumps(data, indent=2) + "\n"
    assert data["columns"]["flag"] == [True, False]
    code, csv_text = run_cli(["feasibility", "--rate", "1"], tmp_path, "t.csv")
    assert code == 0
    assert csv_text == _row_wise_csv(data["columns"])
    assert csv_text.splitlines()[1] == 'true,"a,b",18446744073709551615,0.10000000000000001,undefined'


# Renderer fuzz: tables of one to three blocks whose array columns repeat
# values from small pools, so that blocks take the distinct-value path or
# the cell-by-cell one, or sit at the edges between them.

_BLOCK, _FLOOR = cli._CSV_BLOCK_ROWS, cli._DISTINCT_MIN_ROWS
_FLOAT_POOL = np.array([0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308, -1.7976931348623157e308, 1.0,
                        np.nextafter(1.0, 2.0), 0.1, np.nextafter(0.1, 1.0), -2.5, 1e-300])
_INT_POOL = np.array([0, 1, -1, 7, 12345678901, 2**53 - 1, -(2**53 - 1)])
_CELL_POOL = [None, True, False, "", "a,b", 'say "hi"', "x", 3, -0.0, 0.5]
# whole blocks below, at and above the floor, and last blocks the same
_EDGE_ROWS = [1, _FLOOR - 1, _FLOOR, _FLOOR + 1, _BLOCK, _BLOCK + _FLOOR - 1, _BLOCK + _FLOOR,
              2 * _BLOCK + _FLOOR - 1, 2 * _BLOCK + _FLOOR, 3 * _BLOCK]


def _ulp_runs(rng, rows: int, extra: int) -> np.ndarray:
    """Per block, half its size plus ``extra`` neighbouring floats
    (consecutive bit patterns from a pool value) and repeats of them,
    shuffled: with ``extra`` 0 an even block holds exactly half its cells
    distinct, with 1 just more than half."""
    blocks = []
    for start in range(0, rows, _BLOCK):
        size = min(_BLOCK, rows - start)
        count = min(size, max(1, size // 2 + extra))
        base = rng.choice(_FLOAT_POOL[:4]).view(np.int64)  # zeros and subnormals
        distinct = (base + np.arange(count)).view(np.float64)
        cells = np.concatenate([distinct, rng.choice(distinct, size - count)])
        blocks.append(rng.permutation(cells))
    return np.concatenate(blocks)


def _fuzz_column(kind: str, pool: int, seed: int, rows: int):
    rng = np.random.default_rng(seed)
    if kind == "floats":
        return rng.choice(_FLOAT_POOL[:pool], rows)
    if kind == "ints":
        return rng.choice(_INT_POOL[:pool], rows).astype(np.int64)
    if kind == "cells":
        return [_CELL_POOL[i] for i in rng.integers(0, min(pool, len(_CELL_POOL)), rows)]
    return _ulp_runs(rng, rows, {"half": 0, "over_half": 1, "distinct": _BLOCK}[kind])


@st.composite
def _render_table(draw):
    rows = draw(st.sampled_from(_EDGE_ROWS) | st.integers(1, 3 * _BLOCK))
    kinds = st.sampled_from(["floats", "ints", "cells", "half", "over_half", "distinct"])
    columns = draw(st.lists(st.tuples(kinds, st.integers(1, len(_FLOAT_POOL)),
                                      st.integers(0, 2**32 - 1)), min_size=1, max_size=4))
    return {f"c{i}": _fuzz_column(kind, pool, seed, rows)
            for i, (kind, pool, seed) in enumerate(columns)}


def _edge_table(rows: int) -> dict:
    kinds = ["floats", "ints", "cells", "half", "over_half", "distinct"]
    return {kind: _fuzz_column(kind, 4, seed, rows) for seed, kind in enumerate(kinds)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(table=_render_table())
@example(table=_edge_table(2 * _BLOCK + _FLOOR))  # a last block at the floor
@example(table=_edge_table(_BLOCK + _FLOOR - 1))  # a last block just below it
# a run of -0.0 across a block boundary, among 0.0
@example(table={"x": np.repeat([0.0, -0.0, 0.0], [_BLOCK - 24, 100, _BLOCK - 76])})
@example(table={"label": ["", "a", ""]})  # the writer quotes a row's lone empty field
def test_renderers_match_stdlib_on_repeated_and_distinct_blocks(table):
    columns = {name: column.tolist() if isinstance(column, np.ndarray) else column
               for name, column in table.items()}
    meta = {"command": "fuzz", "parameters": {"rows": len(next(iter(columns.values())))}}
    assert cli._render_csv(table) == _row_wise_csv(columns)
    assert cli._render_json(table, meta) == json.dumps(
        {"meta": meta, "columns": columns}, indent=2) + "\n"


def test_distinct_values_are_formatted_once_in_long_blocks_at_most_half_distinct():
    formatted = []

    def form(value):
        formatted.append(value)
        return repr(value)

    for rows, kind, once in [(_FLOOR, "half", True), (_FLOOR - 1, "half", False),
                             (_FLOOR, "over_half", False), (_BLOCK, "half", True)]:
        block = _fuzz_column(kind, 1, 0, rows)
        formatted.clear()
        strings = cli._distinct_formatted(block, form)
        assert (strings is not None) == once
        if once:
            assert len({repr(value) for value in formatted}) == len(formatted) == rows // 2
            assert strings == [repr(value) for value in block.tolist()]


# Option reach: every flag a subcommand accepts changes its stdout or its
# exit code.  Each row is an argv without the flag and the flag with its
# values; the flag is appended to form the second argv.

_REACH = [
    *((["herald", "--nbar", "0.5"], extra) for extra in (
        ["--detector", "resolved"], ["--eta", "0.5"], ["--eta-d", "0.5"], ["--t", "3"])),
    (["herald"], ["--nbar", "0.5"]),
    (["herald", "--t", "2", "--nbar", "0.1,0.2"], ["--chronological"]),
    *((["fidelity", "--t", "2", "--nbar", "0.5"], extra) for extra in (
        ["--detector", "resolved"], ["--eta", "0.5"], ["--eta-d", "0.5"],
        ["--eta-s", "0.5"], ["--eta-f", "0.5"], ["--chronological"])),
    (["fidelity"], ["--t", "2"]),
    (["fidelity"], ["--nbar", "0.5"]),
    *((["sweep", "--t", "1..2", "--nbar", "0.5"], extra) for extra in (
        ["--detector", "resolved"], ["--eta", "0.5"], ["--eta-d", "0.5"],
        ["--eta-s", "0.5"], ["--eta-f", "0.5"])),
    (["sweep"], ["--t", "2"]),
    (["sweep"], ["--nbar", "0.5"]),
    *((["optimize", "--t", "2", "--biased"], extra) for extra in (
        ["--detector", "resolved"], ["--eta", "0.5"], ["--eta-d", "0.5"],
        ["--eta-s", "0.5"], ["--eta-f", "0.5"], ["--chronological"],
        ["--objective", "conditional"], ["--nbar-min", "5"], ["--nbar-max", "0.01"])),
    (["optimize"], ["--t", "2"]),
    (["optimize", "--t", "2"], ["--biased"]),
    *(([command, "--t", "2", "--nbar", "0.5", "--trials", "2000"], extra)
      for command in ("simulate", "parallel") for extra in (
        ["--detector", "resolved"], ["--eta", "0.5"], ["--eta-d", "0.5"],
        ["--eta-s", "0.5"], ["--eta-f", "0.5"], ["--seed", "1"], ["--histogram"])),
    *(([command, "--trials", "2000"], extra)
      for command in ("simulate", "parallel") for extra in (["--t", "2"], ["--nbar", "0.5"])),
    *(([command, "--t", "2", "--nbar", "0.1,2", "--trials", "2000"], ["--chronological"])
      for command in ("simulate", "parallel")),
    *(([command, "--t", "2"], ["--trials", "2000"]) for command in ("simulate", "parallel")),
    (["parallel", "--trials", "2000"], ["--sources", "3"]),
    *((["figure", "fig9"], extra) for extra in (
        ["--detector", "resolved"], ["--nbar", "0.5"], ["--eta", "0.5"], ["--t", "3"],
        ["--sources", "2"])),
    *((["figure", "fig11", "--t", "1..2"], extra) for extra in (
        ["--eta-d", "0.5"], ["--eta-s", "0.5"], ["--eta-f", "0.5"])),
    (["figure", "fig3", "--t", "1..2"], ["--reoptimize"]),
    *((["feasibility", "--rate", "1e6"], extra) for extra in (
        ["--attenuation", "1"], ["--loops", "3"], ["--eta-s", "0.5"], ["--group-index", "2"],
        ["--detector-rate", "1e3"])),
    (["feasibility"], ["--rate", "1e6"]),
]


def _accepted_flags() -> dict:
    """Each subcommand's flags, read from the parser, less the output flags."""
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return {name: {flag for action in command._actions for flag in action.option_strings}
            - {"-h", "--help", "--format", "--out"}
            for name, command in commands.items()}


def _outcome(argv, capsys):
    """Exit code and stdout of one run; argparse's usage errors exit 2."""
    try:
        code = main(argv)
    except SystemExit as usage:
        code = usage.code
    return code, capsys.readouterr().out


def test_reach_table_covers_every_accepted_flag():
    covered: dict = {}
    for without, extra in _REACH:
        covered.setdefault(without[0], set()).add(extra[0])
    assert covered == _accepted_flags()


@pytest.mark.parametrize("without, extra", _REACH,
                         ids=[" ".join(without + extra) for without, extra in _REACH])
def test_every_accepted_flag_changes_the_output_or_exit_code(without, extra, capsys):
    assert _outcome(without, capsys) != _outcome(without + extra, capsys)


@pytest.mark.parametrize("argv", [["optimize", "--nbar", "0.5"], ["sweep", "--chronological"],
                                  ["herald", "--eta", "0.9", "--eta-s", "2"],
                                  ["herald", "--eta-f", "0.5"]],
                         ids=" ".join)
def test_flags_a_command_ignored_are_usage_errors(argv, capsys):
    # optimize chooses the pump (and reads --nbar as an ambiguous prefix of
    # --nbar-min and --nbar-max); sweep's --nbar lists levels, not a
    # schedule; no herald column reads the loss chain
    assert _outcome(argv, capsys) == (2, "")


# CLI fuzz: syntactically valid flags with extreme values, each given as
# --flag=value so that a leading minus sign reads as a value.  Runtime
# bounds: train lengths up to 1e5, the closed forms' domain, for herald,
# fidelity, sweep and the closed-form figures whose grids stay within
# ~1e6 cells at that length (fig2, fig3, fig9, fig11; fig6 up to 1e3 and
# fig7 and fig10, with ~1,000-point grids, up to 100); at most 8 bins for
# optimize --biased, fig8 and fig3 --reoptimize, and 1e3 for the constant
# optimizer; Monte Carlo runs of at most 1e4 trials, 20 bins and 64
# sources, the bound; fig9 up to 8 sources at t up to 1e5 and up to 64 at
# t up to 1e4.  One source past the bound exits 2 before any run.



def _values(valid, extremes: list[str], invalid: list[str]):
    """Values drawn half from ``valid``, a quarter from ``extremes`` and a
    quarter from ``invalid``."""
    return st.one_of(valid, valid, st.sampled_from(extremes), st.sampled_from(invalid))


_EFFICIENCY = _values(st.floats(0, 1).map(repr), ["0", "1", "5e-324"],
                      ["-0.5", "1.5", "nan", "inf"])
_NBAR = _values(st.floats(0, 1e8).map(repr), ["0", "5e-324", "1e308"], ["inf", "nan", "-1"])
_NBARS = st.lists(_NBAR, min_size=1, max_size=3).map(",".join)
_BOUND = _values(st.floats(5e-324, 1e308).map(repr), ["5e-324", "1e308"],
                 ["0", "-1", "inf", "nan"])
_SEED = st.sampled_from([0, 2**64 - 1, 2**64, 2**70, -1]) | st.integers(0, 2**64 - 1)
_SWITCH = st.just(None)  # a store_true flag, given bare
_PHYSICS = {"--detector": st.sampled_from(["bucket", "resolved"]), "--eta": _EFFICIENCY,
            "--eta-d": _EFFICIENCY, "--eta-s": _EFFICIENCY, "--eta-f": _EFFICIENCY}


def _t(most: int):
    return st.integers(0, most)


def _ts(most: int):
    """An increasing comma list of one to three train lengths up to ``most``."""
    return st.lists(st.integers(1, most), min_size=1, max_size=3, unique=True).map(
        lambda ts: ",".join(str(t) for t in sorted(ts)))


def _mc_flags(parallel: bool) -> dict:
    flags = {**_PHYSICS, "--t": _t(20), "--nbar": _NBARS, "--chronological": _SWITCH,
             "--trials": st.integers(-1, 10_000), "--seed": _SEED, "--histogram": _SWITCH}
    return {**flags, "--sources": st.integers(-1, cli._MAX_SOURCES + 1)} if parallel else flags


_FIGURE_T = {"fig2": _ts(100_000), "fig3": _ts(100_000), "fig6": _ts(1_000),
             "fig7": _t(100), "fig8": _ts(8), "fig9": _t(100_000), "fig10": _t(100),
             "fig11": _ts(100_000)}
_FIGURE_VALUES = {"--detector": _PHYSICS["--detector"], "--nbar": _NBARS,
                  "--eta": st.lists(_EFFICIENCY, min_size=1, max_size=3).map(",".join),
                  "--eta-d": _EFFICIENCY, "--eta-s": _EFFICIENCY, "--eta-f": _EFFICIENCY,
                  "--sources": st.integers(-1, 8), "--reoptimize": _SWITCH}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    head = [command]
    required: dict = {}
    if command in ("herald", "fidelity"):
        flags = {**_PHYSICS, "--t": _t(100_000), "--nbar": _NBARS, "--chronological": _SWITCH}
        if command == "herald":
            del flags["--eta-s"], flags["--eta-f"]
    elif command == "sweep":
        flags = {**_PHYSICS, "--t": _ts(100_000), "--nbar": _NBARS}
    elif command == "optimize":
        biased = draw(st.booleans())
        flags = {**_PHYSICS, "--t": _t(8 if biased else 1_000), "--chronological": _SWITCH,
                 "--objective": st.sampled_from(["conditional", "unconditional"]),
                 "--nbar-min": _BOUND, "--nbar-max": _BOUND}
        head += ["--biased"] if biased else []
    elif command in ("simulate", "parallel"):
        flags = _mc_flags(command == "parallel")
    elif command == "figure":
        figure = draw(st.sampled_from(sorted(FIGURES)))
        head.append(figure)
        # a figure accepts the flags its defaults name
        allowed = {"--" + flag.replace("_", "-") for flag in FIGURES[figure][1]}
        flags = {flag: values for flag, values in _FIGURE_VALUES.items() if flag in allowed}
        if "--t" in allowed:
            reoptimize = figure in ("fig3", "fig4") and draw(st.booleans())
            flags["--t"] = _ts(8) if reoptimize else _FIGURE_T[{"fig4": "fig3"}.get(figure, figure)]
            head += ["--reoptimize"] if reoptimize else []
            flags.pop("--reoptimize", None)
        if figure == "fig9" and draw(st.booleans()):  # more sources on shorter trains
            flags["--sources"], flags["--t"] = st.integers(9, cli._MAX_SOURCES + 1), _t(10_000)
    else:
        required = {"--rate": _BOUND}
        flags = {"--attenuation": _BOUND, "--loops": st.integers(-5, 2**70),
                 "--eta-s": _EFFICIENCY, "--group-index": _BOUND, "--detector-rate": _BOUND}
    given = draw(st.fixed_dictionaries(required, optional=flags))
    return head + [flag if value is None else f"{flag}={value}" for flag, value in given.items()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_fuzz_argv())
@example(argv=["herald", "--t=100000", "--nbar=5e-324", "--detector=resolved"])
@example(argv=["sweep", "--t=1,99999,100000", "--nbar=1e308,0,5e-324"])
@example(argv=["figure", "fig3", "--t=100000"])
@example(argv=["figure", "fig9", "--t=100000", "--sources=8", "--nbar=1e308"])
@example(argv=["figure", "fig7", "--eta=1.5"])
@example(argv=["optimize", "--nbar-min=5e-324", "--nbar-max=1e308", "--biased", "--t=8"])
@example(argv=["simulate", "--nbar=1e308", "--seed=18446744073709551616"])
@example(argv=["parallel", "--sources=64", "--t=20", "--trials=10000", "--nbar=1e-3"])
@example(argv=["figure", "fig9", "--t=10000", "--sources=64"])
def test_cli_exits_cleanly_on_extreme_flag_values(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        return
    assert out.getvalue() == ""
    message = err.getvalue()
    assert message.startswith("error: ") and message.count("\n") == 1 and message.endswith("\n")
    if " must lie in [0, 1]" in message and argv[0] != "feasibility":
        # feasibility names its switch efficiency as assess_feasibility does
        named = message.removeprefix("error: ").split(" must lie in [0, 1]")[0]
        assert named in {arg.split("=")[0] for arg in argv}
