"""Job lists of the benchmark workloads.

A job is one ``loopsource`` command line.  Every random choice in a job
list comes from the workload seed: the sweep's nbar grid, the optimizer
efficiencies and the Monte Carlo seeds.  The figure datasets keep their
fixed reference points.  Each workload is chosen so that one layer does
most of the work while the others idle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# fig4 reruns fig3's builder; fig8 runs the optimizer and belongs to
# the optimize workload.
DATASET_FIGURES = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11")

SWEEP_T = (1, 50)
SWEEP_NBAR_POINTS = 100
SWEEP_NBAR_RANGE = (0.01, 3.0)
SWEEP_ETA = 0.95

OPTIMIZE_TS = (4, 7)
OPTIMIZE_ETA_RANGE = (0.90, 0.99)

MC_TRIALS = 150_000
MC_TRAIN = {"t": 50, "nbar": 0.5, "eta": 0.9}
MC_PARALLEL = {"t": 10, "nbar": 0.1, "eta": 0.95, "sources": 4}


@dataclass(frozen=True)
class Job:
    kind: str  # which output check applies
    argv: tuple[str, ...]  # CLI arguments, without --format and --out
    fmt: str
    params: dict  # inputs the output check needs


def build(workload: str, seed: int) -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return WORKLOADS[workload](random.Random(seed))


def _datasets(rng: random.Random) -> list[Job]:
    jobs = [Job("figure", ("figure", fig), "csv", {"figure": fig}) for fig in DATASET_FIGURES]
    lo, hi = (math.log10(x) for x in SWEEP_NBAR_RANGE)
    nbars = sorted(10.0 ** rng.uniform(lo, hi) for _ in range(SWEEP_NBAR_POINTS))
    ts = list(range(SWEEP_T[0], SWEEP_T[1] + 1))
    for detector, fmt in (("bucket", "csv"), ("resolved", "json")):
        argv = (
            "sweep", "--detector", detector, "--eta", repr(SWEEP_ETA),
            "--t", f"{ts[0]}..{ts[-1]}", "--nbar", ",".join(repr(x) for x in nbars),
        )
        params = {"detector": detector, "eta": SWEEP_ETA, "ts": ts, "nbars": nbars,
                  "sample_seed": rng.getrandbits(32)}
        jobs.append(Job("sweep", argv, fmt, params))
    return jobs


def _optimize(rng: random.Random) -> list[Job]:
    jobs = [Job("figure", ("figure", "fig8"), "csv", {"figure": "fig8"})]
    for t in OPTIMIZE_TS:
        for detector in ("bucket", "resolved"):
            eta = round(rng.uniform(*OPTIMIZE_ETA_RANGE), 6)
            for objective in ("unconditional", "conditional"):
                for biased in (False, True):
                    argv = ("optimize", "--detector", detector, "--eta", repr(eta),
                            "--t", str(t), "--objective", objective)
                    if biased:
                        argv += ("--biased",)
                    params = {"detector": detector, "eta": eta, "t": t,
                              "objective": objective, "biased": biased}
                    jobs.append(Job("optimize", argv, "csv", params))
    return jobs


def _monte_carlo(command: str, point: dict, rng: random.Random) -> list[Job]:
    jobs = []
    for fmt in ("csv", "json"):
        seed = rng.getrandbits(63)
        argv = (command, "--detector", "bucket", "--t", str(point["t"]),
                "--nbar", repr(point["nbar"]), "--eta", repr(point["eta"]),
                "--trials", str(MC_TRIALS), "--seed", str(seed))
        if "sources" in point:
            argv += ("--sources", str(point["sources"]))
        params = dict(point, detector="bucket", trials=MC_TRIALS, seed=seed)
        jobs.append(Job(command, argv, fmt, params))
    return jobs


WORKLOADS = {
    "datasets": _datasets,
    "optimize": _optimize,
    "mc_train": lambda rng: _monte_carlo("simulate", MC_TRAIN, rng),
    "mc_parallel": lambda rng: _monte_carlo("parallel", MC_PARALLEL, rng),
}
