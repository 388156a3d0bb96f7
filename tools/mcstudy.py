"""Many-seed Monte Carlo study of one source tree.

    python tools/mcstudy.py TREE [--seeds FIRST..LAST] [--points c0,c1,...]
                                 [--trials N] [--jobs J]

A tree is a checkout of this repository (its package under ``src``).  The
tool runs each point over each seed through the tree's
``simulate_parallel_sources``, in ``python -B`` processes that import the
package from the tree's ``src`` (as ``tools/bytediff.py`` does), and
grades every run against the tree's closed forms as criterion 5 of
``tests/test_acceptance.py`` does.  The points are criterion 5's ten
configurations (``c0`` .. ``c9``, drawn from its master seed) and the
benchmark's two Monte Carlo points (``mc_train``, ``mc_parallel``).

Per point and statistic (the herald rate, the conditional and the
unconditional fidelity, and each bin of the loop histogram) it reports the
mean and SD of the z-scores over the seeds, each with its standard error,
and the share of seeds on which the point breaks criterion 5's limits (a
scalar z of 3 or more, or a bin's of 4 or more).  Over several of the
criterion's points it also reports the share of seeds on which any of
them does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

CRITERION_POINTS = tuple(f"c{i}" for i in range(10))
POINTS = CRITERION_POINTS + ("mc_train", "mc_parallel")
SCALARS = ("herald", "conditional", "unconditional")
SCALAR_LIMIT, BIN_LIMIT = 3.0, 4.0

# Runs in a tree's process: reads {"points", "seeds", "trials"} as JSON from
# its second argument and writes, per point and seed, the z-scores of the three scalars
# and of each histogram bin as JSON on stdout.  Criterion 5's configurations
# are drawn from its master seed as tests/test_acceptance.py draws them.
_RUNNER = r"""
import json, math, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
import numpy as np
import loopsource as ls
if Path(ls.__file__).resolve().parents[1] != src:
    sys.exit(f"loopsource was imported from {ls.__file__}, not from {src}")
RESOLVED, BUCKET = ls.DetectorKind.NUMBER_RESOLVED, ls.DetectorKind.BUCKET

def criterion_configs(master_seed=20250815):
    rng = np.random.default_rng(master_seed)
    out = {}
    for i in range(10):
        t = int(rng.integers(1, 13))
        kind = RESOLVED if rng.random() < 0.5 else BUCKET
        eta_d = float(rng.uniform(0.6, 1.0))
        eta_s = float(rng.uniform(0.7, 1.0))
        eta_f = float(rng.uniform(0.85, 1.0))
        if i == 7:
            pump = ls.PerBinPump(tuple(float(x) for x in rng.uniform(0.05, 2.0, t)))
        else:
            pump = ls.ConstantPump(float(rng.uniform(0.05, 2.0)))
        config = ls.ProtocolConfig(t, pump, ls.DetectorModel(kind, eta_d),
                                   ls.LossModel(eta_s, eta_f))
        out[f"c{i}"] = (config, 3 if i == 9 else 1)
    return out

def workload_point(t, nbar, eta, sources):
    config = ls.ProtocolConfig(t, ls.ConstantPump(nbar), ls.DetectorModel(BUCKET, eta),
                               ls.LossModel(eta, eta))
    return config, sources

def reference(config, sources):
    report = ls.fidelity_report(config)
    if sources == 1:
        dist = ls.outcome_distribution(config)
        return dist.probabilities, dist.herald_probability, report.conditional, report.unconditional
    single = ls.herald_single_shot(ls.SourceModel(float(config.bin_means()[0])), config.detector)
    dist = ls.m_source_distribution(single, config.time_bins, sources)
    unconditional = ls.parallel_unconditional_fidelity(dist, report.per_loop)
    herald = 1.0 - dist.no_herald
    return dist.probabilities, herald, unconditional / herald, unconditional

def z(value, p, denominator):
    se = math.sqrt(p * (1.0 - p) / denominator) if denominator else 0.0
    if se > 0.0:
        return (value - p) / se
    return 0.0 if value == p else math.copysign(math.inf, value - p)

job = json.loads(sys.argv[2])
points = {**criterion_configs(), "mc_train": workload_point(50, 0.5, 0.9, 1),
          "mc_parallel": workload_point(10, 0.1, 0.95, 4)}
trials, results = job["trials"], {}
for name in job["points"]:
    config, sources = points[name]
    probs, herald, cond, uncond = reference(config, sources)
    rows = results[name] = []
    for seed in job["seeds"]:
        summary = ls.simulate_parallel_sources([config] * sources, trials, seed)
        heralded = sum(summary.loop_counts[:-1])
        conditional = summary.conditional_fidelity
        rows.append([z(summary.herald_rate.value, herald, trials),
                     z(conditional.value if conditional else 0.0, cond, heralded),
                     z(summary.unconditional_fidelity.value, uncond, trials),
                     *(z(summary.loop_histogram.probabilities[l], p, trials)
                       for l, p in enumerate(probs))])
json.dump(results, sys.__stdout__)
"""


def run(tree: Path, points: list[str], seeds: list[int], trials: int, jobs: int = 1) -> dict:
    """``{point: [[z of herald, conditional, unconditional, bin 0, ...], ...]}``,
    one row per seed in order, from ``jobs`` processes of the tree side by
    side, each running a contiguous share of the seeds."""
    src = Path(tree).resolve() / "src"
    if not (src / "loopsource" / "montecarlo.py").is_file():
        raise RuntimeError(f"{tree} holds no src/loopsource/montecarlo.py")
    size = -(-len(seeds) // max(1, jobs))
    shares = [seeds[i:i + size] for i in range(0, len(seeds), size)]
    processes = [subprocess.Popen(
        [sys.executable, "-B", "-c", _RUNNER, str(src),
         json.dumps({"points": points, "seeds": share, "trials": trials})],
        cwd=src.parent, env=dict(os.environ, PYTHONPATH=str(src)), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for share in shares]
    results = {point: [] for point in points}
    for process in processes:
        out, err = process.communicate()
        if process.returncode != 0:
            raise RuntimeError(f"{tree}: the runner exited {process.returncode}: {err.strip()}")
        for point, rows in json.loads(out).items():
            results[point] += rows
    return results


def moments(values: list[float]) -> tuple[float, float, float, float]:
    """Mean, its standard error, SD and its standard error (normal theory)."""
    n = len(values)
    mean = sum(values) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else math.nan
    return mean, sd / math.sqrt(n), sd, sd / math.sqrt(2 * (n - 1)) if n > 1 else math.nan


def fails(row: list[float]) -> bool:
    """Whether one run breaks criterion 5's limits."""
    return (max(abs(z) for z in row[:3]) >= SCALAR_LIMIT
            or max(abs(z) for z in row[3:]) >= BIN_LIMIT)


def report(results: dict) -> list[str]:
    """The study as text lines: per point, one row per statistic, then the
    share of seeds that break the limits; the criterion's points together
    last."""
    lines = [f"{'point':<12}{'statistic':<15}{'z mean':>8}{'SE':>7}{'z SD':>8}{'SE':>7}"]
    for point, rows in results.items():
        names = [*SCALARS, *(f"bin {l}" for l in range(len(rows[0]) - 4)), "no herald"]
        for k, name in enumerate(names):
            mean, mean_se, sd, sd_se = moments([row[k] for row in rows])
            lines.append(f"{point:<12}{name:<15}{mean:>+8.3f}{mean_se:>7.3f}{sd:>8.3f}{sd_se:>7.3f}")
        share = sum(map(fails, rows)) / len(rows)
        lines.append(f"{point:<12}limits fail on {share:.1%} of {len(rows)} seeds")
    criterion = [point for point in results if point in CRITERION_POINTS]
    if len(criterion) > 1:
        seeds = len(results[criterion[0]])
        share = sum(any(fails(results[p][i]) for p in criterion) for i in range(seeds)) / seeds
        lines.append(f"{','.join(criterion)}: limits fail on {share:.1%} of {seeds} seeds")
    return lines


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("..")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="tree to study")
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("70000000..70000299"),
                        help="seed range FIRST..LAST (default 70000000..70000299)")
    parser.add_argument("--points", default=",".join(POINTS),
                        help=f"comma-separated points among {','.join(POINTS)} (default all)")
    parser.add_argument("--trials", type=int, default=1_000_000,
                        help="trials per run (default 1000000, criterion 5's)")
    parser.add_argument("--jobs", type=int, default=1, help="processes (default 1)")
    args = parser.parse_args(argv)
    points = args.points.split(",")
    unknown = sorted(set(points) - set(POINTS))
    if unknown or args.trials < 1 or args.jobs < 1 or not args.seeds:
        parser.error(f"unknown points {unknown}" if unknown else
                     "--trials and --jobs must be >= 1 and --seeds not empty")
    start = time.perf_counter()
    try:
        results = run(args.tree, points, args.seeds, args.trials, args.jobs)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{args.tree}: seeds {args.seeds[0]}..{args.seeds[-1]}, {args.trials} trials a run, "
          f"{time.perf_counter() - start:.0f} s")
    for line in report(results):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
