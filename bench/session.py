"""One run's state: inputs, the warm stack, solves, and every check."""

from __future__ import annotations

import gc
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import run_request
from repro.seq.alignment import Alignment

from bench.checks import alignment_problems
from bench.host import child_pids, shm_segments
from bench.trace import Recorder
from bench.workloads import (
    WARM_WINDOW,
    DriveResult,
    Stack,
    Workload,
    drive,
    make_inputs,
    quality,
)

ROOT = Path(__file__).resolve().parent.parent
PROBE_TIMEOUT_S = 60.0


class Session:
    """Runs a workload's operations and counts what was attempted and
    what failed.

    A solve or request that raises, times out, is refused, returns an
    alignment violating an invariant, or differs from the first output
    for its family is a failed operation, as is anything left behind
    after ``close``.
    """

    def __init__(
        self, workload: Workload, seed: int, tmp: Path, rec: Recorder
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.rec = rec
        self.attempted = 0
        self.failures: List[str] = []
        #: First FASTA seen per family; every later output must equal it.
        self.first_fasta: Dict[int, str] = {}
        #: Q per family, computed once (outputs repeat byte for byte).
        self.quality: Dict[int, float] = {}
        self._shm_before = shm_segments()
        self._cold_dirs = (tmp / f"cold-{k}" for k in itertools.count())
        self.inputs = make_inputs(workload, seed)
        self.stack = Stack(workload, str(tmp / "warm"), rec)

    # -- counting ----------------------------------------------------------

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures.append(reason)

    def check(self, family: int, aln: Alignment, what: str) -> None:
        fasta = aln.to_fasta()
        first = self.first_fasta.get(family)
        if first is None:
            member = self.inputs.families[family]
            problems = alignment_problems(aln, member.sequences)
            if problems:
                self.fail(f"{what} of family {family}: {problems}")
                return
            self.first_fasta[family] = fasta
            self.quality[family] = quality(aln, member)
            self.ok()
        elif fasta != first:
            self.fail(f"{what} of family {family} differs from the first")
        else:
            self.ok()

    def check_driven(self, driven: DriveResult, what: str) -> DriveResult:
        self.attempted += driven.completed + len(driven.failures)
        self.failures.extend(driven.failures)
        for family, result in sorted(driven.results.items()):
            self.check(family, result.alignment, what)
        return driven

    # -- operations --------------------------------------------------------

    def cold_submission(self) -> DriveResult:
        """Fill the warm stack's store: the whole stream on the serve
        workload, family 0 once on the batch workloads."""
        streams = self.inputs.streams if self.workload.serves else [[0]]
        return self.check_driven(
            drive(self.stack.gateway, self.inputs, streams, self.rec),
            "cold submission",
        )

    def warm_pass(self, seconds: float) -> DriveResult:
        return self.check_driven(
            drive(
                self.stack.gateway, self.inputs, [self.inputs.warm_stream],
                self.rec, seconds=seconds, window=WARM_WINDOW,
            ),
            "warm pass",
        )

    def solve(self, family: int) -> Optional[Tuple[float, Any]]:
        """One timed solve, checked; ``(seconds, result)`` or ``None``
        when it raised (counted as failed).

        Batch: ``run_request`` on the family's request, returns the
        ``AlignResult``.  Serve: one cold pass of the stream through a
        fresh gateway over a fresh store directory, returns the
        ``DriveResult``.
        """
        if not self.workload.serves:
            gc.collect()
            t0 = time.perf_counter()
            try:
                result = run_request(self.inputs.requests[family])
            except Exception as exc:  # whatever an engine raises is counted
                self.fail(f"solve of family {family}: {exc!r}")
                return None
            dt = time.perf_counter() - t0
            self.check(family, result.alignment, "solve")
            return dt, result
        store_dir = next(self._cold_dirs)
        stack = Stack(self.workload, str(store_dir), self.rec)
        try:
            gc.collect()
            driven = drive(
                stack.gateway, self.inputs, self.inputs.streams, self.rec
            )
        finally:
            stack.close()
            shutil.rmtree(store_dir, ignore_errors=True)
        self.check_driven(driven, "cold pass")
        return driven.elapsed, driven

    def launch_probe(self) -> Optional[Dict[str, float]]:
        """Time a fresh process up to its first completed request;
        ``None`` (counted as failed) when the launch does not complete."""
        t_launch = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bench.worker", "--probe",
                 "--workload", self.workload.name, "--seed", str(self.seed)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S, check=True,
            )
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            self.fail(f"set-up launch: {exc!r}")
            return None
        self.ok()
        return {
            "setup_s": report["ready_unix"] - t_launch,
            "import_s": report["import_s"],
        }

    def close(self) -> None:
        """Close the stack; nothing may be left running or mapped."""
        self.stack.close()
        deadline = time.monotonic() + 5.0
        while child_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        left = child_pids()
        new_shm = shm_segments() - self._shm_before
        if left:
            self.fail(f"processes left after close: {sorted(left)}")
        elif new_shm:
            self.fail(f"/dev/shm segments left after close: {sorted(new_shm)}")
        else:
            self.ok()
