"""Record the figure-dataset reference values the benchmark checks against.

Run from the repository root, only when a figure dataset is meant to
change:

    python3 bench/record_reference.py

It regenerates every figure the benchmark runs through
``loopsource.cli.main`` and writes column sums and sample rows of each
to ``bench/reference.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from loopsource import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    reference = {}
    for figure in workloads.DATASET_FIGURES + ("fig8",):
        path = out_dir / f"reference_{figure}.csv"
        if cli.main(["figure", figure, "--out", str(path)]) != 0:
            print(f"figure {figure} failed", file=sys.stderr)
            return 1
        reference[figure] = checks.summarize(*checks.read_table(path, "csv"))
    # One figure per line keeps diffs of a re-recording readable.
    lines = [f"{json.dumps(figure)}: {json.dumps(summary)}" for figure, summary in reference.items()]
    checks.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
