"""Benchmark of the loopsource package, driven from outside the package.

    python3 bench/run.py --workload datasets --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

A run of one workload, in one single-threaded process:

1. It imports the package into this process from ``src`` and builds the
   workload's job list from ``--seed`` (see ``workloads.py``).
2. A warm-up pass runs every job once through ``loopsource.cli.main``,
   each writing its dataset to a file under ``bench/.out``; its outputs
   are checked (see ``checks.py``) and their digests kept.
3. Timed passes repeat the job list for ``--seconds`` seconds.  A later
   pass must reproduce the warm-up bytes, since it replays the same
   seeds.  With ``--trace 1`` untraced and traced passes alternate; the
   traced ones record spans around each layer (see ``tracing.py``).
   Between passes it samples set-up: with ``--trace 0`` the wall time of
   a fresh interpreter running ``import loopsource.cli``, the cost every
   CLI invocation pays; with ``--trace 1`` the same import under
   ``-X importtime``.  End-to-end times are rescaled for the machine's
   speed at the time (see "machine speed" below).
4. It prints a report and, as the last line of standard output, one
   JSON object with the keys correct, attempted, failed and metrics:
   the end-to-end metrics with ``--trace 0``, the per-layer metrics
   with ``--trace 1``.

``--workload all`` runs the four workloads one after another, each in
its own process, and ends with one JSON object over all of them.
Without the package under ``src`` the run exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import operator
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / ".out"

WORKLOAD_NAMES = ("datasets", "optimize", "mc_train", "mc_parallel")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_STATEMENT = "import loopsource.cli"
SETUP_SHARE = 0.2
MIN_SETUP_SAMPLES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
CALIBRATION_LOOP = 150_000
CALIBRATION_EXPRESSIONS = 1_500
REFERENCE_CALIBRATION_S = 0.03


class SetupError(Exception):
    """The package under test cannot be found, imported or run."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "loopsource" / "cli.py").is_file():
        print(f"error: no loopsource package under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    try:
        if args.workload == "all":
            lines, result = run_all(args)
        else:
            lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# set-up: cold starts and import profile


def _fresh_interpreter(*flags: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_STATEMENT],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"'{IMPORT_STATEMENT}' failed:\n{proc.stderr.strip()}")
    return elapsed, proc.stderr


def cold_start() -> float:
    return _fresh_interpreter()[0]


def parse_importtime(text: str) -> dict[str, float]:
    """Import cost by package from ``-X importtime`` output: the summed
    self time of scipy's and numpy's modules, and the cumulative time of
    the top-level loopsource imports (which include both)."""
    self_us = {"scipy": 0, "numpy": 0}
    loopsource_us = 0
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cumulative, name = int(fields[0]), int(fields[1]), fields[2]
        package = name.strip().split(".")[0]
        if package in self_us:
            self_us[package] += own
        # Top-level entries are indented by one space, nested ones by more.
        elif package == "loopsource" and not name.startswith("  "):
            loopsource_us += cumulative
    return {
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
        "import.loopsource_s": loopsource_us / 1e6,
    }


def import_profile() -> dict[str, float]:
    return parse_importtime(_fresh_interpreter("-X", "importtime")[1])


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared machine the speed of a core drifts by tens of percent over
# minutes, as other tenants come and go.  Each timed job and cold start
# therefore runs between two runs of a fixed calibration, and the
# end-to-end times are rescaled to a machine on which the calibration
# takes REFERENCE_CALIBRATION_S.  A change to the program moves the timed
# work but not the calibration, so it moves the rescaled time in full.


def calibration_time() -> float:
    """Wall time of a fixed mix of pure-Python arithmetic and small numpy
    expressions, the two kinds of work the workloads do."""
    import numpy as np

    vector = np.linspace(0.1, 1.0, 50)
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    for _ in range(CALIBRATION_EXPRESSIONS):
        float(np.sum(vector * 0.5 / (1.0 + vector) ** 2))
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Rescales a wall time measured between calibrations taking
    ``before`` and ``after`` seconds."""
    return 2.0 * REFERENCE_CALIBRATION_S / (before + after)


def calibrated(fn, *args):
    """Call ``fn`` between two calibrations; returns its result and its
    speed factor."""
    before = calibration_time()
    result = fn(*args)
    return result, speed_factor(before, calibration_time())


# ---------------------------------------------------------------------------
# passes


def run_pass(cli, jobs, paths, tracer=None) -> tuple[float, float, list[int]]:
    """Run every job once through ``cli.main``, with a calibration before
    each job and after the last.  Returns the wall time of the jobs, the
    same time rescaled job by job (see ``calibration_time``), and the
    jobs' exit codes (-1 for a job that raised)."""
    for path in paths:
        path.unlink(missing_ok=True)
    restore = tracer.install(cli) if tracer else None
    codes = []
    elapsed = rescaled = 0.0
    try:
        calibration = calibration_time()
        for index, (job, path) in enumerate(zip(jobs, paths)):
            if tracer:
                tracer.job = index
            start = time.perf_counter()
            try:
                codes.append(cli.main([*job.argv, "--format", job.fmt, "--out", str(path)]))
            except Exception:  # a crashing job counts as failed; the pass goes on
                traceback.print_exc()
                codes.append(-1)
            job_time = time.perf_counter() - start
            before, calibration = calibration, calibration_time()
            elapsed += job_time
            rescaled += job_time * speed_factor(before, calibration)
    finally:
        if restore:
            restore()
    return elapsed, rescaled, codes


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def count_failed(codes, paths, warm_digests, problems) -> int:
    """Jobs that exited non-zero, whose warm-up output failed its check,
    or whose output differs from the warm-up pass with the same seeds."""
    return sum(
        1
        for code, path, warm, bad in zip(codes, paths, warm_digests, problems)
        if code != 0 or bad or digest(path) != warm
    )


def run_workload(name: str, seed: int, seconds: int, trace: int):
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("loopsource.cli")
        import checks
        import tracing
    except ImportError as err:
        raise SetupError(f"cannot import loopsource.cli: {err}") from err

    jobs = workloads.build(name, seed)
    OUT_DIR.mkdir(exist_ok=True)
    paths = [OUT_DIR / f"{name}_{index}.{job.fmt}" for index, job in enumerate(jobs)]

    *_, codes = run_pass(cli, jobs, paths)
    warm_digests = [digest(path) for path in paths]
    reference = checks.load_reference()
    problems = [
        checks.check(job, path, reference) if code == 0 else [f"exit code {code}"]
        for job, path, code in zip(jobs, paths, codes)
    ]
    for job, bad in zip(jobs, problems):
        for problem in bad[:5]:
            print(f"check failed: {' '.join(job.argv)[:80]}: {problem}", file=sys.stderr)

    # Set-up samples (cold starts, or import profiles when tracing) are
    # spread over the run between passes, taking about SETUP_SHARE of its
    # time, so both kinds of sample see the same phases of a shared machine.
    setup_sample = import_profile if trace else cold_start
    setup_samples: list = []
    setup_scales: list[float] = []
    untraced: list[float] = []
    untraced_rescaled: list[float] = []
    traced: list[tuple[float, list]] = []
    failed = attempted = 0
    setup_time = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced if trace else untraced) < MIN_PASSES:
        for tracer in (None, tracing.Tracer()) if trace else (None,):
            elapsed, rescaled, codes = run_pass(cli, jobs, paths, tracer)
            if tracer:
                traced.append((rescaled, tracer.spans))
            else:
                untraced.append(elapsed)
                untraced_rescaled.append(rescaled)
            failed += count_failed(codes, paths, warm_digests, problems)
            attempted += len(jobs)
        if setup_time < SETUP_SHARE * (time.perf_counter() - start):
            sample_start = time.perf_counter()
            sample, scale = calibrated(setup_sample)
            setup_samples.append(sample)
            setup_scales.append(scale)
            setup_time += time.perf_counter() - sample_start
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        sample, scale = calibrated(setup_sample)
        setup_samples.append(sample)
        setup_scales.append(scale)

    header = [
        environment_line(),
        f"workload {name}: seed={seed} trace={trace} jobs={len(jobs)} "
        f"timed passes={len(untraced) + len(traced)} after 1 warm-up pass",
        _line("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} jobs failed"),
    ]
    if trace:
        tables = [checks.read_table(path, job.fmt) for job, path in zip(jobs, paths)]
        passes = [tracing.layer_totals(spans) for _, spans in traced]
        values, notes = per_layer(untraced_rescaled, traced, passes, tables, paths, setup_samples)
    else:
        values = {
            "setup_s": statistics.median(map(operator.mul, setup_samples, setup_scales)),
            "pass_s": statistics.median(untraced_rescaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        notes = {
            "setup_s": "rescaled median; wall " + _spread(setup_samples, "cold starts")
            + f", speed factor {statistics.median(setup_scales):.3f}",
            "pass_s": "rescaled median; wall " + _spread(untraced, "passes"),
            "peak_rss_mb": "peak resident set of this process, 1 sample",
        }
    # BENCHMARK.json fixes the names, units and order of the metrics.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    lines = header + [_line(key, metric["value"], metric["unit"], notes.get(key, ""))
                      for key, metric in metrics.items()]
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced, traced, passes, tables, paths, profiles):
    """Per-layer metrics from the traced passes' layer totals: times are
    medians over passes, counts repeat exactly from pass to pass."""
    m = {key: statistics.median(p[key] for p in passes) if key.endswith("_s") else passes[0][key]
         for key in passes[0]}
    m.update({key: statistics.median(p[key] for p in profiles) for key in profiles[0]})
    m["cli.rows"] = sum(len(rows) for _, rows in tables)
    m["cli.bytes_out"] = sum(path.stat().st_size for path in paths)
    m["analytic.calls_per_s"] = _ratio(m["analytic.calls"], m["analytic.self_s"])
    m["multiplex.opt.s_per_solve"] = _ratio(m["multiplex.opt.self_s"], m["multiplex.opt.solves"])
    m["multiplex.opt.evals_per_s"] = _ratio(m["multiplex.opt.evaluations"],
                                            m["multiplex.opt.self_s"])
    m["montecarlo.trials_per_s"] = _ratio(m["montecarlo.trials"], m["montecarlo.self_s"])
    m["montecarlo.draws_per_s"] = _ratio(m["montecarlo.draws"], m["montecarlo.self_s"])
    m["montecarlo.live_draw_frac"] = _ratio(m["montecarlo.live_draws"], m["montecarlo.draws"])
    traced_times = [elapsed for elapsed, _ in traced]
    m["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(untraced) - 1.0

    notes = {key: f"median of {len(profiles)} '-X importtime' profiles" for key in profiles[0]}
    notes.update({key: f"median of {len(passes)} traced passes" for key in m if key.endswith("self_s")})
    notes["cli.rows"] = notes["cli.bytes_out"] = "in the outputs of one pass"
    notes["montecarlo.draws"] = "computed: draws_per_trial(t) x trials x sources"
    notes["trace.overhead_frac"] = (f"rescaled times: traced {_spread(traced_times, 'passes')}; "
                                    f"untraced {_spread(untraced, 'passes')}")
    return m, notes


# ---------------------------------------------------------------------------
# reporting


def _spread(values: list[float], what: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} {what} (q1 {q1:.4g}, q3 {q3:.4g})"


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<28} {value:>14.6g} {unit:<6} {note}"


def environment_line() -> str:
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package}={importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{package}=absent")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"env: python={sys.version.split()[0]} {' '.join(versions)} "
            f"nproc={os.cpu_count()} cpu={cpu}")


def run_all(args):
    lines = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SetupError(f"workload {name} exited with status {proc.returncode}")
        *report, last = proc.stdout.splitlines()
        result = json.loads(last)
        lines.extend(report)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return lines, combined


if __name__ == "__main__":
    sys.exit(main())
