"""Smoke test of ``tools/bytediff.py`` on a two-argv corpus."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bytediff():
    spec = importlib.util.spec_from_file_location("bytediff", ROOT / "tools" / "bytediff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bytediff_reports_no_move_against_itself_and_counts_moved_cells():
    bytediff = _bytediff()
    argvs = [["figure", "fig2", "--format", "json"], ["herald", "--nbar", "0.5"]]
    parent, change = bytediff.run_trees([ROOT, ROOT], argvs)
    assert [bytediff.compare(*run) for run in zip(argvs, parent, change)] == [[], []]
    (json_code, json_out, json_err), (csv_code, csv_out, csv_err) = parent
    assert (json_code, json_err, csv_code, csv_err) == (0, "", 0, "")

    document = json.loads(json_out)
    column = next(iter(document["columns"].values()))
    column[0] *= 1.5  # one cell moved by a third of its value
    moved = (0, json.dumps(document, indent=2), "")
    assert bytediff.compare(argvs[0], parent[0], moved) == [
        f"stdout: 1 of {len(bytediff._cells(json_out, True)[0])} cells moved "
        "(0 non-numeric; largest relative move 0.333), meta unchanged"]
    header, row = csv_out.splitlines()
    moved = (0, f"{header}\nundefined,{row.split(',', 1)[1]}\n", "")
    assert bytediff.compare(argvs[1], parent[1], moved) == [
        f"stdout: 1 of {2 * len(header.split(','))} cells moved (all non-numeric)"]
    assert bytediff.compare(argvs[1], parent[1], (2, "", "error: x\n")) == [
        "exit code 0 -> 2", "stderr: 0 -> 1 lines, first difference at line 1",
        "stdout: 2 -> 0 lines, first difference at line 1"]


def _mcstudy():
    spec = importlib.util.spec_from_file_location("mcstudy", ROOT / "tools" / "mcstudy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mcstudy_grades_a_tiny_seed_list():
    """Two seeds of two criterion points and a workload point, small runs:
    one row of z-scores per seed (three scalars, then every histogram bin),
    the same rows from two processes as from one, and a report line per
    statistic plus the shares of seeds that break criterion 5's limits."""
    from test_acceptance import _randomized_configs

    mcstudy = _mcstudy()
    points, seeds = ["c0", "c9", "mc_parallel"], [5, 6]
    results = mcstudy.run(ROOT, points, seeds, 3000)
    assert results == mcstudy.run(ROOT, points, seeds, 3000, jobs=2)
    configs = _randomized_configs(20250815)
    bins = [configs[0][0].time_bins + 1, configs[9][0].time_bins + 1, 11]
    for point, width in zip(points, bins):
        assert [len(row) for row in results[point]] == [3 + width] * len(seeds)
        assert all(abs(z) < 10.0 for row in results[point] for z in row)
    lines = mcstudy.report(results)
    assert len(lines) == 1 + sum(3 + width + 1 for width in bins) + 1
    assert lines[-1].startswith("c0,c9: limits fail on ")
    assert mcstudy.fails([0.0, 3.0, 0.0, 0.0]) and mcstudy.fails([0.0, 0.0, 0.0, -4.0])
    assert not mcstudy.fails([2.9, -2.9, 0.0, 3.9])
