"""Byte diff of the ``loopsource`` command line between two source trees.

    python tools/bytediff.py PARENT_TREE CHANGE_TREE

A tree is a checkout of this repository (its package under ``src``).  The
tool runs one fixed argv corpus (:func:`corpus`) through
``loopsource.cli.main`` of each tree, each tree in its own ``python -B``
process that imports the package from the tree's ``src``, so no
``__pycache__`` is written and neither tree sees the other.  Per argv it
compares the exit code, stderr and stdout.  A stdout that moved is parsed
as CSV or JSON and reported per output: how many cells moved, the largest
relative move among numeric cells, and whether only ``meta`` changed.

The corpus holds every figure id in both formats, ``fig3 --reoptimize``,
``fig8 --t 1..40``, ``fig9 --sources 64``, every job of the benchmark's
four workloads (``bench/workloads.py`` beside this file) for seeds 1-3,
and edge inputs: undefined cells, pump levels 0, -0, 1e-300 and 1e300,
trains up to 2,000 bins, the biased optimizer at huge bounds, a blind
detector, a lossless chain, a grid of Monte Carlo runs, every ``--help``
and the known error paths.

Exit status: 0 when every output is byte-identical, 1 when any moved, 2
when a tree could not be run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11")
WORKLOAD_SEEDS = (1, 2, 3)
COMMANDS = ("herald", "fidelity", "sweep", "optimize", "simulate", "parallel", "figure",
            "feasibility")
DETECTORS = ("bucket", "resolved")

# Runs in each tree's process: reads the corpus as JSON on stdin, writes
# [exit code, stdout, stderr] per argv as JSON on stdout.  Each argv gets a
# fresh warnings registry, as it would in a process of its own.
_RUNNER = r"""
import contextlib, io, json, sys, traceback, warnings
from pathlib import Path
src = Path(sys.argv[1]).resolve()
import loopsource.cli as cli
if Path(cli.__file__).resolve().parents[1] != src:
    sys.exit(f"loopsource was imported from {cli.__file__}, not from {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = 0 if stop.code is None else stop.code
        except Exception:
            code = "crash"
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue().replace(str(src), "<src>")])
json.dump(results, sys.__stdout__)
"""


def corpus() -> list[list[str]]:
    """The fixed argv corpus, in a fixed order, without repeats."""
    argvs = [["figure", fig, "--format", fmt] for fig in FIGURE_IDS for fmt in ("csv", "json")]
    argvs += [["figure", "fig3", "--reoptimize"], ["figure", "fig8", "--t", "1..40"],
              ["figure", "fig9", "--sources", "64"]]
    argvs += _workload_argvs()
    argvs += _edge_argvs()
    unique = {tuple(argv): None for argv in argvs}
    return [list(argv) for argv in unique]


def _workload_argvs() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [[*job.argv, "--format", job.fmt] for seed in WORKLOAD_SEEDS
            for name in workloads.WORKLOADS for job in workloads.build(name, seed)]


def _edge_argvs() -> list[list[str]]:
    argvs = []
    # undefined cells and the edges of the pump range
    for detector in DETECTORS:
        for fmt in ("csv", "json"):
            argvs.append(["sweep", "--detector", detector, "--nbar", "0,-0,1e-300,0.5,1e300",
                          "--t", "1..3", "--format", fmt])
            argvs.append(["sweep", "--detector", detector, "--eta-d", "0", "--t", "1,3",
                          "--format", fmt])
        for command in ("herald", "fidelity"):
            for nbar in ("0", "-0", "1e-300", "1e300"):
                argvs.append([command, "--detector", detector, "--nbar", nbar, "--t", "3"])
    for fmt in ("csv", "json"):
        for flags in ("--nbar 0", "--eta-d 0", "--nbar 1e-200 --eta-d 1e-200"):
            argvs.append(["figure", "fig11", *flags.split(), "--format", fmt])
    # long trains
    for detector in DETECTORS:
        argvs.append(["sweep", "--detector", detector, "--eta-d", "0.9", "--eta-s", "0.99",
                      "--eta-f", "0.999", "--nbar", "0.1,1,3", "--t", "1..2000"])
        argvs.append(["fidelity", "--detector", detector, "--nbar", "0.5", "--t", "2000"])
        argvs.append(["optimize", "--detector", detector, "--t", "2000", "--biased"])
    argvs.append(["figure", "fig6", "--t", "1,2000"])
    # the optimizers at both objectives, also at huge bounds
    for detector in DETECTORS:
        for objective in ("unconditional", "conditional"):
            for bounds in ([], ["--nbar-min", "1e150", "--nbar-max", "1e160"]):
                base = ["optimize", "--detector", detector, "--t", "5", "--objective", objective]
                argvs.append([*base, *bounds, "--biased"])
                argvs.append([*base, *bounds, "--format", "json"])
    # a blind detector and a lossless chain
    for detector in DETECTORS:
        argvs.append(["fidelity", "--detector", detector, "--eta-d", "0", "--t", "3"])
        argvs.append(["optimize", "--detector", detector, "--eta-d", "0", "--t", "3", "--biased"])
        lossless = ["--eta-d", "1", "--eta-s", "1", "--eta-f", "1", "--t", "5"]
        argvs.append(["fidelity", "--detector", detector, *lossless])
        argvs.append(["optimize", "--detector", detector, *lossless, "--biased"])
    argvs += _monte_carlo_argvs()
    # every --help and the known error paths
    argvs.append(["--help"])
    argvs += [[command, "--help"] for command in COMMANDS]
    argvs += [
        ["herald", "--t", "100001"], ["sweep", "--t", "1,100001"],
        ["parallel", "--sources", "65"], ["simulate", "--trials", "0"],
        ["parallel", "--trials", "0"], ["simulate", "--trials", str(2**63)],
        ["simulate", "--seed", "-1"], ["herald", "--nbar", "abc"], ["herald", "--nbar", ","],
        ["herald", "--detector", "foo"], ["figure", "fig12"],
        ["figure", "fig9", "--sources", "65"], ["figure", "fig9", "--sources", "0"],
        ["figure", "fig2", "--nbar", "1,2"], ["figure", "fig2", "--eta-f", "2"],
        ["figure", "fig2", "--sources", "2"], ["figure", "fig11", "--eta-f", "2"],
        ["figure", "fig9", "--t", "30000", "--nbar", "1e-7", "--eta", "0.1", "--sources", "1"],
        ["feasibility", "--rate", "1e6"], ["feasibility", "--rate", "0"],
        ["feasibility", "--rate", "1e-300"],
    ]
    return argvs


def _monte_carlo_argvs() -> list[list[str]]:
    argvs = []
    for command in ("simulate", "parallel"):
        sources = ["--sources", "3"] if command == "parallel" else []
        for detector in DETECTORS:
            for eta in ("0", "0.5", "0.9", "1"):
                for nbar in ("0", "0.1", "2", "0.3,0,1.7"):
                    for histogram in ([], ["--histogram"]):
                        argvs.append([command, "--detector", detector, "--t", "3", "--eta", eta,
                                      "--nbar", nbar, "--trials", "20000", "--seed", "5",
                                      *sources, *histogram])
        few = [*sources, "--trials", "20000", "--seed", "11"]
        argvs += [
            [command, "--detector", "resolved", "--t", "50", "--nbar", "2", "--histogram", *few],
            [command, "--t", "1000", "--nbar", "1", "--eta-d", "0.01", *few],
            [command, "--t", "100000", "--nbar", "1e-4", "--eta-d", "0.9", "--eta-s", "0.99",
             "--eta-f", "0.999", *few],
            [command, "--t", "3", "--nbar", "4e15", "--eta-d", "1e-15", *few],
            [command, "--t", "3", "--nbar", "1e-200", *few],
        ]
    return argvs


def run_trees(trees: list[Path], argvs: list[list[str]]) -> list[list[tuple]]:
    """``(exit code, stdout, stderr)`` of each argv in each tree, the trees
    run side by side, each in its own process."""
    payload = json.dumps(argvs)
    processes = []
    for tree in trees:
        src = Path(tree).resolve() / "src"
        if not (src / "loopsource" / "cli.py").is_file():
            raise RuntimeError(f"{tree} holds no src/loopsource/cli.py")
        processes.append(subprocess.Popen(
            [sys.executable, "-B", "-c", _RUNNER, str(src)], cwd=src.parent,
            env=dict(os.environ, PYTHONPATH=str(src)), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    results = []
    for tree, process in zip(trees, processes):
        out, err = process.communicate(payload)
        if process.returncode != 0:
            raise RuntimeError(f"{tree}: the runner exited {process.returncode}: {err.strip()}")
        results.append([tuple(result) for result in json.loads(out)])
    return results


def compare(argv: list[str], parent: tuple, change: tuple) -> list[str]:
    """What moved between the parent's and the change's ``(exit code,
    stdout, stderr)`` of ``argv``, one line each; empty where nothing did."""
    lines = []
    if parent[0] != change[0]:
        lines.append(f"exit code {parent[0]} -> {change[0]}")
    if parent[2] != change[2]:
        lines.append(f"stderr: {_text_move(parent[2], change[2])}")
    if parent[1] != change[1]:
        if parent[0] == change[0] == 0 and "--help" not in argv:
            json_out = any(a == "--format" and b == "json" for a, b in zip(argv, argv[1:]))
            lines.append(f"stdout: {_output_move(parent[1], change[1], json_out)}")
        else:
            lines.append(f"stdout: {_text_move(parent[1], change[1])}")
    return lines


def _output_move(old: str, new: str, json_out: bool) -> str:
    """Moved cells of a CSV or JSON output; its text lines where either
    side does not parse."""
    try:
        (old_cells, old_meta), (new_cells, new_meta) = _cells(old, json_out), _cells(new, json_out)
    except (ValueError, csv.Error):
        return _text_move(old, new)
    keys = list({**old_cells, **new_cells})
    moved, text, largest = 0, 0, 0.0
    for key in keys:
        a, b = old_cells.get(key), new_cells.get(key)
        if a == b and type(a) is type(b):
            continue
        moved += 1
        move = _relative_move(a, b)
        if move is None:
            text += 1
        else:
            largest = max(largest, move)
    if moved == 0:
        return "only meta moved" if old_meta != new_meta else "same cells and meta, other bytes"
    numeric = "all non-numeric" if text == moved else (
        f"{text} non-numeric; largest relative move {largest:.3g}")
    meta = "" if not json_out else ", meta moved" if old_meta != new_meta else ", meta unchanged"
    return f"{moved} of {len(keys)} cells moved ({numeric}){meta}"


def _cells(text: str, json_out: bool) -> tuple[dict, object]:
    """The cells of an output, keyed by position, and its ``meta`` (JSON)."""
    if json_out:
        document = json.loads(text)
        if not isinstance(document, dict):
            raise ValueError("not a JSON object")
        meta = document.pop("meta", None)
        cells = {}
        _flatten(document, (), cells)
        return cells, meta
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("no CSV rows")
    return {(i, j): cell for i, row in enumerate(rows) for j, cell in enumerate(row)}, None


def _flatten(value, path: tuple, cells: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, (*path, key), cells)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten(item, (*path, index), cells)
    else:
        cells[path] = value


def _relative_move(a, b) -> float | None:
    """``|a - b| / max(|a|, |b|)`` of two numeric cells; None where either
    is missing or not a finite number."""
    numbers = []
    for cell in (a, b):
        if isinstance(cell, bool) or cell is None:
            return None
        try:
            number = float(cell)
        except (TypeError, ValueError):
            return None
        if not math.isfinite(number):
            return None
        numbers.append(number)
    scale = max(abs(numbers[0]), abs(numbers[1]))
    return abs(numbers[0] - numbers[1]) / scale if scale else 0.0


def _text_move(old: str, new: str) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b),
                 min(len(old_lines), len(new_lines)))
    return f"{len(old_lines)} -> {len(new_lines)} lines, first difference at line {first + 1}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    args = parser.parse_args(argv)
    argvs = corpus()
    start = time.perf_counter()
    try:
        parent, change = run_trees([args.parent, args.change], argvs)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    seconds = time.perf_counter() - start
    moved = 0
    for command, old, new in zip(argvs, parent, change):
        lines = compare(command, old, new)
        if lines:
            moved += 1
            print(f"moved: {' '.join(command)}")
            for line in lines:
                print(f"    {line}")
    print(f"{len(argvs)} argv: {len(argvs) - moved} identical, {moved} moved "
          f"({seconds:.1f} s, both trees side by side)")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
