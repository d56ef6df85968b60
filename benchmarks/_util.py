"""Shared helpers of the benchmark harness.

Every bench regenerates one table or figure of the paper.  Numeric output
goes two ways: printed to the terminal (visible with ``pytest -s``) and
written to ``benchmarks/reports/<name>.txt`` so EXPERIMENTS.md can cite a
stable artifact.

Environment knobs:

- ``REPRO_BENCH_FULL=1`` -- run the paper-scale measured configurations
  (minutes to hours on this host) instead of the scaled-down defaults.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterable, Sequence

REPORT_DIR = Path(__file__).resolve().parent / "reports"

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def write_report(name: str, text: str) -> Path:
    """Print a bench report and persist it under benchmarks/reports/."""
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n===== {name} =====\n{text}\n")
    return path


def fmt_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width text table."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def once(benchmark, fn, *args, **kwargs):
    """Run a workload exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


@contextlib.contextmanager
def explicit_pool(max_workers: int):
    """A ``max_workers``-slot pool as the process default for the block,
    so a ``backend="pool"`` arm runs on warm workers whatever the host's
    core count (the default pool may hold two slots, and more ranks than
    slots run cold on a one-shot pool)."""
    from repro.pool import WorkerPool, set_default_pool

    with WorkerPool(max_workers=max_workers) as pool:
        previous = set_default_pool(pool)
        try:
            yield pool
        finally:
            set_default_pool(previous)
