"""Virtual message-passing cluster with two execution backends.

The paper runs on a 16-node Beowulf cluster via MPI.  This subpackage
provides the substitution documented in DESIGN.md: ranks execute an
mpi4py-style API
(``send/recv/bcast/scatter/gather/allgather/alltoall/barrier/reduce``),
every payload is metered in bytes, and a latency/bandwidth cost model
drives per-rank *logical clocks* so that a run yields both real wall time
and a modeled cluster time (max over ranks of compute + modeled
communication, the coarse-grained model the paper itself uses in its
section-3 analysis).

*Where* the ranks execute is an :class:`ExecutionBackend`: ``"threads"``
(the in-process fabric -- ranks run Python one at a time, so wall time
is about the serial work and the modeled clocks are free of contention;
only compiled calls that drop the interpreter lock, which a rank runs
with its run token parked, overlap on real cores) or ``"pool"``
(persistent warm worker processes from :mod:`repro.pool`, payloads
pickled onto queues -- real parallel compute on multi-core hosts; a run
with more ranks than the pool has slots runs cold on a one-shot pool).
Both produce byte-identical program results and equivalent ledgers.

- :mod:`repro.parcomp.cost` -- cost model, payload sizing, event ledger.
- :mod:`repro.parcomp.comm` -- the transport seam and :class:`VirtualComm`.
- :mod:`repro.parcomp.backends` -- the two execution backends, selected
  by name.
- :mod:`repro.parcomp.launcher` -- the SPMD launcher (``run_spmd``).
- :mod:`repro.parcomp.token` -- the process's compute token: one
  request's engine computes in-process at a time, and a ``pool``
  dispatch parks it while the worker processes run.
"""

from repro.parcomp.cost import CommEvent, CostModel, TimingLedger, estimate_nbytes
from repro.parcomp.comm import (
    Fabric,
    SpmdAbort,
    Transport,
    VirtualComm,
    run_token_parked,
)
from repro.parcomp.backends import (
    DEFAULT_BACKEND,
    ExecutionBackend,
    SpmdResult,
    ThreadBackend,
    available_backends,
    get_backend,
    in_spmd_rank,
    usable_cores,
)
from repro.parcomp.launcher import run_spmd

__all__ = [
    "CommEvent",
    "CostModel",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "Fabric",
    "SpmdAbort",
    "SpmdResult",
    "ThreadBackend",
    "TimingLedger",
    "Transport",
    "VirtualComm",
    "available_backends",
    "estimate_nbytes",
    "get_backend",
    "in_spmd_rank",
    "run_spmd",
    "run_token_parked",
    "usable_cores",
]
