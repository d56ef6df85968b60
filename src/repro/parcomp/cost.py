"""Communication cost model, payload sizing and the timing ledger.

The cluster model is the classic alpha-beta (latency/bandwidth) model on
top of per-rank logical clocks:

- sending ``m`` bytes costs ``alpha + beta * m`` on the sender's clock;
- a receive synchronises the receiver's clock with the message's ready
  time (sender clock at completion of the send);
- rank-local computation advances a rank's clock by its measured *thread
  CPU time* (so other threads sharing the host's single core do not
  pollute the measurement).

The defaults correspond to a gigabit-Ethernet cluster of the paper's era
(~50 us MPI latency, ~100 MB/s effective bandwidth).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

__all__ = ["CostModel", "CommEvent", "TimingLedger", "estimate_nbytes"]


@dataclass(frozen=True)
class CostModel:
    """Latency/bandwidth (alpha-beta) point-to-point cost model.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds (1/bandwidth).
    """

    alpha: float = 50e-6
    beta: float = 1.0 / 100e6

    def message_cost(self, nbytes: int) -> float:
        """Modeled wall time to move one message of ``nbytes``."""
        return self.alpha + self.beta * max(int(nbytes), 0)


@dataclass
class CommEvent:
    """One point-to-point message, as metered by the fabric.

    ``send_clock`` is the sender's logical clock when the message left
    (i.e. after paying the alpha-beta cost) -- the trace renderer builds
    per-rank timelines from it.
    """

    kind: str  # "send", or the collective that generated it
    src: int
    dst: int
    nbytes: int
    tag: int
    send_clock: float = 0.0


@dataclass
class TimingLedger:
    """Per-rank accounting of a virtual-cluster run.

    ``compute`` holds measured thread CPU seconds per rank; ``clock`` the
    final logical clocks (compute + modeled communication); ``events`` the
    full message log.
    """

    n_ranks: int
    cost_model: CostModel
    compute: np.ndarray = field(default=None)
    clock: np.ndarray = field(default=None)
    events: List[CommEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.compute is None:
            self.compute = np.zeros(self.n_ranks)
        if self.clock is None:
            self.clock = np.zeros(self.n_ranks)

    # -- aggregate views -------------------------------------------------------

    def modeled_time(self) -> float:
        """Modeled parallel execution time: the slowest logical clock."""
        return float(self.clock.max()) if self.n_ranks else 0.0

    def total_compute(self) -> float:
        """Total CPU seconds across ranks (serial-equivalent work)."""
        return float(self.compute.sum())

    def max_compute(self) -> float:
        return float(self.compute.max()) if self.n_ranks else 0.0

    def total_bytes(self, kind: str | None = None) -> int:
        return sum(e.nbytes for e in self.events if kind is None or e.kind == kind)

    def n_messages(self, kind: str | None = None) -> int:
        return sum(1 for e in self.events if kind is None or e.kind == kind)

    def modeled_comm_time(self) -> float:
        """Modeled time of all messages if serialised (upper bound)."""
        return sum(self.cost_model.message_cost(e.nbytes) for e in self.events)

    def bytes_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + e.nbytes
        return out

    def load_balance(self) -> float:
        """max/mean rank compute time (1.0 = perfectly balanced)."""
        mean = self.compute.mean()
        return float(self.compute.max() / mean) if mean > 0 else 1.0


def estimate_nbytes(obj: Any) -> int:
    """Approximate wire size of a payload without serialising it.

    Sized structurally for the types the pipeline actually ships (numpy
    arrays, sequences, alignments, containers); anything unknown falls
    back to ``len(pickle.dumps(obj))``.
    """
    if obj is None:
        return 1
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    # Sequence / Alignment / Profile without importing them (avoid cycles).
    residues = getattr(obj, "residues", None)
    if isinstance(residues, str):
        return len(residues) + len(getattr(obj, "id", "")) + 16
    matrix = getattr(obj, "matrix", None)
    if isinstance(matrix, np.ndarray):
        ids = getattr(obj, "ids", [])
        return int(matrix.nbytes) + sum(len(str(i)) + 8 for i in ids)
    alignment = getattr(obj, "alignment", None)
    if alignment is not None and hasattr(alignment, "matrix"):
        return estimate_nbytes(alignment)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 16 + sum(estimate_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in obj.items()
        )
    fields_ = getattr(obj, "__dataclass_fields__", None)
    if fields_:
        return 16 + sum(
            estimate_nbytes(getattr(obj, name)) for name in fields_
        )
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64
