"""The unified engine registry.

One name space spans every alignment backend: the sequential MSA systems
(``"muscle"``, ``"clustalw"``, ``"tcoffee"``, ...), the stage-parallel
``"parallel-baseline"``, and ``"sample-align-d"`` itself.  Everything --
the :func:`repro.align` facade, the CLI's ``--engine`` flag,
:class:`~repro.engine.service.AlignmentService`, benchmarks -- resolves
engines through :func:`get_engine`; plug-ins enter through
:func:`register_engine` (or :func:`register_sequential_aligner` for bare
:class:`~repro.msa.base.SequentialMsaAligner` factories).

The legacy :mod:`repro.msa.registry` is a thin delegate over the
sequential section of this table, so ``repro.msa.get_aligner`` and
``repro.engine.get_engine`` can never disagree about what a name means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.engine.api import Aligner

__all__ = [
    "EngineEntry",
    "available_engines",
    "available_sequential_aligners",
    "engine_stages",
    "get_engine",
    "get_sequential_aligner",
    "register_engine",
    "register_sequential_aligner",
    "unregister_engine",
    "unregister_sequential_aligner",
]

#: The configurable pipeline stages an engine factory may take as
#: keyword arguments: ``distance=`` (:mod:`repro.distance`) and
#: ``tree=`` (:mod:`repro.tree`), each a name, a config dict or a
#: config.  Entries advertise the subset they take so the serving
#: gateway and the CLI can thread specs through ``engine_kwargs``
#: without guessing.
STAGE_NAMES = ("distance", "tree")


@dataclass(frozen=True)
class EngineEntry:
    """One registry row: how to build an engine, and of which kind."""

    name: str
    kind: str  # "sequential" | "distributed"
    factory: Callable[..., Aligner]
    #: For sequential entries, the raw SequentialMsaAligner factory that
    #: the legacy ``repro.msa.get_aligner`` path returns directly.
    seq_factory: Optional[Callable] = None
    #: Which of :data:`STAGE_NAMES` the factory takes.  Empty for
    #: engines without a guide-tree pipeline (T-Coffee, ProbCons) and
    #: for Sample-Align-D, which takes them via ``local_aligner_kwargs``.
    #: A distributed engine places its own ranks, so a spec given to it
    #: may not carry a ``backend`` / ``workers`` choice.
    stages: FrozenSet[str] = frozenset()


_ENGINES: Dict[str, EngineEntry] = {}


def _register(entry: EngineEntry, overwrite: bool) -> None:
    existing = _ENGINES.get(entry.name)
    if existing is not None:
        if not overwrite:
            raise ValueError(
                f"engine {entry.name!r} already registered "
                "(pass overwrite=True to replace)"
            )
        if existing.kind != entry.kind:
            raise ValueError(
                f"cannot overwrite {existing.kind} engine "
                f"{entry.name!r} with a {entry.kind} one; "
                "unregister it first"
            )
    _ENGINES[entry.name] = entry


def _stage_set(stages: Iterable[str]) -> FrozenSet[str]:
    unknown = set(stages) - set(STAGE_NAMES)
    if unknown:
        raise ValueError(
            f"unknown pipeline stages {sorted(unknown)}; "
            f"subset of {list(STAGE_NAMES)}"
        )
    return frozenset(stages)


def register_engine(
    name: str,
    factory: Callable[..., Aligner],
    kind: str = "distributed",
    overwrite: bool = False,
    stages: Iterable[str] = (),
) -> None:
    """Register an engine factory under a unified-registry name.

    ``factory(**kwargs)`` must return an :class:`Aligner`.  Use
    :func:`register_sequential_aligner` instead when all you have is a
    :class:`~repro.msa.base.SequentialMsaAligner` factory -- that keeps
    the name visible to the legacy ``repro.msa`` paths too.  ``stages``
    advertises which of ``distance=`` / ``tree=`` the factory takes
    (see :func:`engine_stages`).
    """
    if kind not in ("sequential", "distributed"):
        raise ValueError("kind must be 'sequential' or 'distributed'")
    _register(
        EngineEntry(name.lower(), kind, factory, stages=_stage_set(stages)),
        overwrite,
    )


def register_sequential_aligner(
    name: str,
    seq_factory: Callable,
    overwrite: bool = False,
    stages: Iterable[str] = (),
) -> None:
    """Register a sequential MSA factory in the unified name space.

    The name becomes usable both as an engine (``get_engine(name)``, the
    ``align`` facade, the service) and through the legacy
    ``repro.msa.get_aligner`` path.  Pass ``stages`` when the factory
    takes ``distance=`` / ``tree=`` stage specs.
    """
    key = name.lower()

    def engine_factory(**kwargs) -> Aligner:
        from repro.engine.engines import SequentialEngine

        return SequentialEngine(key, seq_factory(**kwargs))

    _register(
        EngineEntry(
            key, "sequential", engine_factory, seq_factory,
            stages=_stage_set(stages),
        ),
        overwrite,
    )


def unregister_engine(name: str) -> None:
    """Remove an engine (any kind) from the registry."""
    try:
        del _ENGINES[name.lower()]
    except KeyError:
        raise KeyError(f"engine {name!r} is not registered") from None


def unregister_sequential_aligner(name: str) -> None:
    """Remove a sequential aligner; refuses to touch distributed engines.

    This is the kind-checked removal the legacy ``repro.msa`` facade
    delegates to.
    """
    entry = _ENGINES.get(name.lower())
    if entry is None or entry.kind != "sequential":
        raise KeyError(
            f"unknown aligner {name!r}; available: "
            f"{available_sequential_aligners()}"
        )
    del _ENGINES[name.lower()]


def available_engines() -> Dict[str, str]:
    """``{name: kind}`` over the whole unified registry, name-sorted."""
    return {name: _ENGINES[name].kind for name in sorted(_ENGINES)}


def available_sequential_aligners() -> List[str]:
    """Sorted names of the sequential section (the legacy registry view)."""
    return sorted(n for n, e in _ENGINES.items() if e.kind == "sequential")


def engine_stages(name: str) -> FrozenSet[str]:
    """Which of ``distance=`` / ``tree=`` the engine's factory takes.

    Empty set for unknown names (callers treat those as "no guide-tree
    pipeline" rather than erroring -- the registry is open).
    """
    entry = _ENGINES.get(name.lower())
    return entry.stages if entry is not None else frozenset()


def get_engine(name: str, **kwargs) -> Aligner:
    """Instantiate any registered engine by unified-registry name."""
    try:
        entry = _ENGINES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; available: {sorted(_ENGINES)}"
        ) from None
    return entry.factory(**kwargs)


def get_sequential_aligner(name: str, **kwargs):
    """Instantiate the raw sequential aligner behind a registry name.

    This is the legacy ``repro.msa.get_aligner`` behaviour: it only
    resolves sequential entries and returns the bare
    :class:`~repro.msa.base.SequentialMsaAligner` (no protocol wrapper).
    """
    entry = _ENGINES.get(name.lower())
    if entry is None or entry.seq_factory is None:
        raise KeyError(
            f"unknown aligner {name!r}; available: "
            f"{available_sequential_aligners()}"
        ) from None
    return entry.seq_factory(**kwargs)


# ---------------------------------------------------------------------------
# Built-in engines.  Sequential factories defer their imports so that
# `import repro.engine` stays cheap (PEP 562 spirit); the heavy stacks
# (pair-HMM, FFT anchoring) load only when the engine is requested.


def _seq(module: str, cls: str, **preset):
    def factory(**kw):
        import importlib

        aligner_cls = getattr(importlib.import_module(module), cls)
        return aligner_cls(**{**preset, **kw})

    return factory


# The guide-tree systems: distance stage through
# repro.distance.all_pairs, tree stage through repro.tree.
_BUILTIN_SEQUENTIAL = {
    # MUSCLE family (paper Table 2: MUSCLE and MUSCLE-p).
    "muscle": _seq("repro.msa.muscle", "MuscleLike"),
    "muscle-p": _seq("repro.msa.muscle", "MuscleLike", refine=False),
    "muscle-draft": _seq(
        "repro.msa.muscle", "MuscleLike", two_stage=False, refine=False
    ),
    # CLUSTALW.
    "clustalw": _seq("repro.msa.clustalw", "ClustalWLike"),
    "clustalw-full": _seq(
        "repro.msa.clustalw", "ClustalWLike", distance_mode="full"
    ),
    # MAFFT scripts cited by the paper.
    "mafft-nwnsi": _seq("repro.msa.mafft", "MafftLike", mode="nwnsi"),
    "mafft-fftnsi": _seq("repro.msa.mafft", "MafftLike", mode="fftnsi"),
    # Cheap baseline.
    "center-star": _seq("repro.msa.centerstar", "CenterStar"),
}

for _name, _factory in _BUILTIN_SEQUENTIAL.items():
    register_sequential_aligner(_name, _factory, stages=STAGE_NAMES)

# Consistency-based systems: no guide-tree distance or tree stage.
register_sequential_aligner(
    "tcoffee", _seq("repro.msa.tcoffee", "TCoffeeLike")
)
register_sequential_aligner(
    "probcons", _seq("repro.msa.probcons", "ProbConsLike")
)


def _sample_align_d_factory(**kwargs) -> Aligner:
    from repro.engine.engines import SampleAlignDEngine

    return SampleAlignDEngine(**kwargs)


def _parallel_baseline_factory(**kwargs) -> Aligner:
    from repro.engine.engines import ParallelBaselineEngine

    return ParallelBaselineEngine(**kwargs)


register_engine("sample-align-d", _sample_align_d_factory)
register_engine(
    "parallel-baseline", _parallel_baseline_factory, stages=STAGE_NAMES
)
