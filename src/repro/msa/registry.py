"""Name-based registry of the sequential MSA systems (legacy facade).

The actual table now lives in :mod:`repro.engine.registry`, which spans
*every* engine (sequential systems, the parallel baseline,
Sample-Align-D).  This module is kept as a thin delegate over the
sequential section so existing callers -- Sample-Align-D's configuration
("align sequences in each processor using any sequential multiple
alignment system"), the Table-2 quality bench, user plug-ins -- keep
working unchanged, and so a name registered here is immediately usable
as a unified engine (``repro.align(seqs, engine=name)``) too.
"""

from __future__ import annotations

from typing import Callable, List

from repro.msa.base import SequentialMsaAligner

__all__ = [
    "available_aligners",
    "get_aligner",
    "register_aligner",
    "unregister_aligner",
]


def available_aligners() -> List[str]:
    """Sorted registry names (the sequential section of the engine table)."""
    from repro.engine.registry import available_sequential_aligners

    return available_sequential_aligners()


def get_aligner(name: str, **kwargs) -> SequentialMsaAligner:
    """Instantiate a sequential aligner by registry name."""
    from repro.engine.registry import get_sequential_aligner

    return get_sequential_aligner(name, **kwargs)


def register_aligner(
    name: str,
    factory: Callable[..., SequentialMsaAligner],
    overwrite: bool = False,
    stages: tuple = (),
) -> None:
    """Register a custom aligner factory (plug-in point for users).

    The name enters the unified engine registry as well, so it is also
    valid for ``repro.align(..., engine=name)`` and as a
    ``SampleAlignDConfig.local_aligner``.  Re-registration raises unless
    ``overwrite=True`` (the escape hatch for tests and plug-ins swapping
    engines).  Pass ``stages`` (a subset of ``("distance", "tree")``)
    when the factory takes ``distance=`` / ``tree=`` stage specs.
    """
    from repro.engine.registry import register_sequential_aligner

    try:
        register_sequential_aligner(
            name, factory, overwrite=overwrite, stages=stages
        )
    except ValueError as exc:
        if "already registered" in str(exc):
            raise ValueError(f"aligner {name!r} already registered") from None
        raise  # e.g. attempting to overwrite a distributed engine


def unregister_aligner(name: str) -> None:
    """Remove a (sequential) aligner from the registry."""
    from repro.engine.registry import unregister_sequential_aligner

    unregister_sequential_aligner(name)
