"""The unified alignment API: one protocol, one request, one result.

The paper's claim is that Sample-Align-D wraps *any* sequential multiple
alignment system.  This module makes that claim an interface: every
engine -- the sequential systems of :mod:`repro.msa`, the stage-parallel
baseline, Sample-Align-D itself, and any future backend -- sits behind
the same three types:

- :class:`Aligner` -- the engine protocol (``name`` + ``run(request)``).
- :class:`AlignRequest` -- an immutable, content-hashable description of
  one alignment job (sequences + engine + knobs).  Serializable via
  ``to_dict``/``from_dict``, so requests can travel over job queues and
  key result caches (:meth:`AlignRequest.content_hash`).
- :class:`AlignResult` -- the uniform response: the alignment plus SP
  score, timing and engine-specific diagnostics.  The rich legacy result
  object (e.g. :class:`repro.core.driver.MsaResult`) rides along in
  ``details`` for callers that need the full ledger.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.core.config import SampleAlignDConfig
from repro.seq.alignment import Alignment
from repro.seq.alphabet import get_alphabet
from repro.seq.sequence import Sequence, SequenceSet

__all__ = ["Aligner", "AlignRequest", "AlignResult"]


@runtime_checkable
class Aligner(Protocol):
    """What every alignment engine looks like to the rest of the system.

    Implementations must be deterministic for a fixed request (that is
    what makes :class:`repro.engine.service.AlignmentService`'s result
    cache sound) and must return rows in the request's input order.
    """

    #: Registry name of the engine.
    name: str
    #: ``"sequential"`` or ``"distributed"`` (informational).
    kind: str

    def run(self, request: "AlignRequest") -> "AlignResult":
        """Execute one alignment job."""
        ...


def _sequences_tuple(seqs: Any) -> Tuple[Sequence, ...]:
    if isinstance(seqs, Sequence):
        raise TypeError("pass an iterable of Sequence, not a single Sequence")
    return tuple(seqs)


@dataclass(frozen=True)
class AlignRequest:
    """One alignment job, described completely and immutably.

    Attributes
    ----------
    sequences:
        The ungapped input sequences (any iterable of
        :class:`~repro.seq.sequence.Sequence`; stored as a tuple).  Ids
        must be unique.
    engine:
        Unified registry name (see :mod:`repro.engine.registry`):
        ``"sample-align-d"``, ``"parallel-baseline"``, or any sequential
        aligner name such as ``"muscle"`` or ``"center-star"``.
    n_procs:
        Virtual processor count for distributed engines (ignored by
        sequential ones).
    seed:
        Seeded initial block distribution for Sample-Align-D (``None`` =
        input order; ignored by engines without a randomized placement).
    config:
        Optional :class:`~repro.core.config.SampleAlignDConfig` for the
        distributed pipeline; sequential engines use only its scoring
        matrix (for the SP score) when present.
    engine_kwargs:
        Extra keyword arguments for the engine factory (e.g.
        ``refine_rounds=5`` for ``"muscle"``).  Values must be JSON-able
        for the content hash to be stable.
    """

    sequences: Tuple[Sequence, ...]
    engine: str = "sample-align-d"
    n_procs: int = 4
    seed: Optional[int] = None
    config: Optional[SampleAlignDConfig] = None
    engine_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sequences", _sequences_tuple(self.sequences)
        )
        if not self.sequences:
            raise ValueError("request has no sequences")
        ids = [s.id for s in self.sequences]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sequence ids in request")
        if not self.engine:
            raise ValueError("engine name must be non-empty")
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        try:
            json.dumps(self.engine_kwargs, sort_keys=True)
        except TypeError as exc:
            raise TypeError(
                "engine_kwargs values must be JSON-able (they feed the "
                f"request's content hash and serialization): {exc}"
            ) from None

    # -- content identity --------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """Fully-determined JSON-able form of this request.

        Two requests with equal ``canonical()`` dicts describe the same
        job; the service's cache key (:meth:`content_hash`) is derived
        from it.
        """
        return {
            "engine": self.engine.lower(),
            "n_procs": self.n_procs,
            "seed": self.seed,
            "config": None if self.config is None else self.config.to_dict(),
            "engine_kwargs": dict(sorted(self.engine_kwargs.items())),
            "sequences": [
                {
                    "id": s.id,
                    "residues": s.residues,
                    "alphabet": s.alphabet.name,
                }
                for s in self.sequences
            ],
        }

    def content_hash(self) -> str:
        """SHA-256 over the canonical form (sequence set + engine + config).

        Matrices and alphabets serialize by *name*, but names are
        free-form -- so the hash additionally folds in their actual
        content (score bytes, symbol strings), making it safe as a cache
        key even for custom objects reusing a bundled name.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            return cached
        h = hashlib.sha256(
            json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        )
        # Distinct alphabet objects by identity first (no per-sequence
        # ``Alphabet.__hash__``), then by (name, symbols) -- alphabet
        # equality -- so equal alphabets fold in once.
        distinct = {id(s.alphabet): s.alphabet for s in self.sequences}
        for name, symbols in sorted(
            {(a.name, a.symbols) for a in distinct.values()}
        ):
            h.update(name.encode())
            h.update(symbols.encode())
        if self.config is not None:
            h.update(self.config.scoring.matrix.matrix.tobytes())
            h.update(self.config.rank_config.alphabet.symbols.encode())
        digest = h.hexdigest()
        object.__setattr__(self, "_content_hash", digest)
        return digest

    def __hash__(self) -> int:
        return hash(self.content_hash())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return self.canonical()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlignRequest":
        entries = data["sequences"]
        # Each distinct alphabet name is resolved once per request.
        alphabets = {
            name: get_alphabet(name)
            for name in dict.fromkeys(d["alphabet"] for d in entries)
        }
        seqs = tuple(
            Sequence(d["id"], d["residues"], alphabets[d["alphabet"]])
            for d in entries
        )
        config = data.get("config")
        return cls(
            sequences=seqs,
            engine=data.get("engine", "sample-align-d"),
            n_procs=data.get("n_procs", 4),
            seed=data.get("seed"),
            config=None if config is None else SampleAlignDConfig.from_dict(config),
            engine_kwargs=dict(data.get("engine_kwargs", {})),
        )

    # -- convenience -------------------------------------------------------

    def sequence_set(self) -> SequenceSet:
        """The input as a :class:`~repro.seq.sequence.SequenceSet`."""
        return SequenceSet(self.sequences)


@dataclass
class AlignResult:
    """Uniform engine response.

    Attributes
    ----------
    alignment:
        The final MSA, rows in the request's input order.
    engine:
        Name of the engine that produced it.
    sp:
        Linear sum-of-pairs score of the alignment.
    wall_time:
        Elapsed seconds of the engine run on this host.
    n_procs:
        Virtual processors used (1 for sequential engines).
    request_hash:
        :meth:`AlignRequest.content_hash` of the originating request.
    diagnostics:
        JSON-able engine-specific facts (modeled time, communication
        bytes, bucket sizes...).
    details:
        The engine's rich native result (:class:`MsaResult`,
        :class:`ParallelBaselineResult`, ...); not serialized.
    """

    alignment: Alignment
    engine: str
    sp: float
    wall_time: float
    n_procs: int = 1
    request_hash: Optional[str] = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    details: Any = field(default=None, repr=False, compare=False)

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        if self.details is not None and hasattr(self.details, "summary"):
            return self.details.summary()
        return (
            f"{self.engine}: N={self.alignment.n_rows} "
            f"cols={self.alignment.n_columns} SP={self.sp:.1f} "
            f"wall={self.wall_time:.2f}s"
        )

    def report(self) -> Dict[str, Any]:
        """Machine-readable run summary (JSON-able)."""
        return {
            "engine": self.engine,
            "n_rows": self.alignment.n_rows,
            "n_columns": self.alignment.n_columns,
            "sp": self.sp,
            "wall_time": self.wall_time,
            "n_procs": self.n_procs,
            "request_hash": self.request_hash,
            "diagnostics": self.diagnostics,
        }

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (drops ``details``); inverse of :meth:`from_dict`."""
        out = self.report()
        out["alignment"] = self.alignment.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlignResult":
        return cls(
            alignment=Alignment.from_dict(data["alignment"]),
            engine=data["engine"],
            sp=data["sp"],
            wall_time=data["wall_time"],
            n_procs=data.get("n_procs", 1),
            request_hash=data.get("request_hash"),
            diagnostics=dict(data.get("diagnostics", {})),
        )
