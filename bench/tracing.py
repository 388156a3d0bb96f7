"""Spans around the package's layers, recorded from outside the package.

The tracer replaces the layer functions under the names that
``loopsource.cli`` imports them as, so every call the CLI makes into a
layer opens a span.  Calls a layer makes inside itself (for example
``optimize_schedule`` calling ``optimize_constant``) stay inside the
outer span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from loopsource.montecarlo import draws_per_trial

# Layer name -> functions that loopsource.cli imports from that layer.
# ``models`` has no span: its constructors and validation run inside
# ``cli`` and are counted in cli's self time.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "analytic": (
        "fidelity_report",
        "conditional_fidelity",
        "unconditional_fidelity",
        "outcome_distribution",
        "herald_single_shot",
        "herald_train",
        "detector_limited_fidelity",
    ),
    "multiplex.dist": ("m_source_distribution", "parallel_unconditional_fidelity"),
    "multiplex.opt": ("optimize_constant", "optimize_schedule"),
    "montecarlo": ("run_simulation", "simulate_parallel_sources"),
}


@dataclass
class Span:
    layer: str
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    # Counters read from the call's arguments and result: optimizer
    # evaluations, or Monte Carlo (trials, sources, loop_counts).
    info: object = None


def _optimizer_info(args, result):
    return result.evaluations


def _montecarlo_info(args, result):
    sources = len(args[0]) if isinstance(args[0], (list, tuple)) else 1
    return (result.trials, sources, result.loop_counts)


_INFO = {"multiplex.opt": _optimizer_info, "montecarlo": _montecarlo_info}


class Tracer:
    """Records one span per traced call; ``job`` tags the spans of the
    job that is running, so the spans of one CLI invocation share it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._open: list[int] = []

    def wrap(self, layer: str, fn):
        info = _INFO.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = Span(layer, fn.__name__, self.job, parent, time.perf_counter())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self, module):
        """Wrap the layer functions bound in ``module``; returns a
        function that puts the originals back."""
        originals = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                originals[name] = getattr(module, name)
                setattr(module, name, self.wrap(layer, originals[name]))

        def restore() -> None:
            for name, fn in originals.items():
                setattr(module, name, fn)

        return restore


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Calls are nested on one thread, so children never overlap."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def live_draws(loop: int, time_bins: int, sources: int) -> int:
    """Uniforms a trial needs when its freshest herald is ``loop`` bins
    before output: every source's thermal and herald draws for bins
    0..loop (to rule out a fresher or tied herald) plus the winner's
    thinning draw.  With no herald every bin of every source counts."""
    if loop == time_bins:
        return 2 * sources * time_bins
    return 2 * sources * (loop + 1) + 1


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Calls, self time and counters of each layer over one pass."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    evaluations = trials = draws = live = 0
    for span, own in zip(spans, self_times(spans)):
        calls[span.layer] += 1
        self_s[span.layer] += own
        if span.layer == "multiplex.opt":
            evaluations += span.info
        elif span.layer == "montecarlo":
            n, sources, loop_counts = span.info
            time_bins = len(loop_counts) - 1
            trials += n
            draws += n * sources * draws_per_trial(time_bins)
            live += sum(count * live_draws(loop, time_bins, sources)
                        for loop, count in enumerate(loop_counts))
    return {
        "analytic.calls": calls["analytic"],
        "analytic.self_s": self_s["analytic"],
        "cli.self_s": self_s["cli"],
        "multiplex.dist.calls": calls["multiplex.dist"],
        "multiplex.dist.self_s": self_s["multiplex.dist"],
        "multiplex.opt.solves": calls["multiplex.opt"],
        "multiplex.opt.self_s": self_s["multiplex.opt"],
        "multiplex.opt.evaluations": evaluations,
        "montecarlo.trials": trials,
        "montecarlo.self_s": self_s["montecarlo"],
        "montecarlo.draws": draws,
        "montecarlo.live_draws": live,
    }
