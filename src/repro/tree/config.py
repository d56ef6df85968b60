"""Serializable configuration of a guide-tree stage.

:class:`TreeConfig` is the one description of a tree stage -- which
builder, with which knobs.  It is JSON-able, so it travels through
``engine_kwargs`` (request content hashes and the serving layer's
coalescing keys see the effective choice) and it is what an aligner's
``tree=`` field resolves to.  It has no placement: the progressive
merge (:func:`repro.tree.progressive_merge`) runs where its caller
runs.

A ``tree=`` spec is any of: ``None`` (the aligner's historical
builder), a registry name (``"nj"``), a :class:`TreeConfig` or
its dict form, or a ready :class:`~repro.tree.builders.TreeBuilder`
instance.  :func:`resolve_tree_stage` turns a spec into
``(builder, config)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.distance.config import DistanceConfig, StageConfig
from repro.tree.builders import TreeBuilder, available_builders, get_builder

__all__ = ["STAGE_CONFIGS", "TreeConfig", "resolve_tree_stage"]


@dataclass(frozen=True)
class TreeConfig(StageConfig):
    """One guide-tree stage, described completely (validated, JSON-able).

    Attributes
    ----------
    builder:
        Registry name (``"upgma"``, ``"wpgma"``, ``"nj"``,
        ``"single-linkage"``, ``"anchor"``; see
        :func:`repro.tree.available_builders`).  ``None`` = the
        aligner's historical builder.
    anchors:
        For ``builder="anchor"``: the number of sampled anchor leaves
        ``K`` (``None`` = the builder's default).  Rejected for other
        builders.
    anchor_base:
        For ``builder="anchor"``: the registry name of the exact builder
        run over the anchors (``None`` = the builder's default).
    anchor_seed:
        For ``builder="anchor"``: the anchor-sampling seed (``None`` =
        the builder's default seed, not "no seed").
    """

    builder: Optional[str] = None
    anchors: Optional[int] = None
    anchor_base: Optional[str] = None
    anchor_seed: Optional[int] = None

    _stage = "tree"
    _made = TreeBuilder
    _names = ("builder", "anchor_base")
    _follows = {
        "anchors": "builder", "anchor_base": "builder",
        "anchor_seed": "builder",
    }

    def __post_init__(self) -> None:
        self._normalise()
        if (
            self.builder is not None
            and self.builder not in available_builders()
        ):
            raise ValueError(
                f"unknown tree builder {self.builder!r}; "
                f"available: {available_builders()}"
            )
        set_opts = sorted(
            name for name in self._follows if getattr(self, name) is not None
        )
        if set_opts and self.builder != "anchor":
            raise ValueError(
                f"{set_opts} only apply to the 'anchor' builder, "
                f"not {self.builder!r}"
            )
        if self.anchors is not None and self.anchors < 1:
            raise ValueError("anchors must be >= 1 (or None)")
        if (
            self.anchor_base is not None
            and self.anchor_base not in available_builders()
        ):
            raise ValueError(
                f"unknown anchor base builder {self.anchor_base!r}; "
                f"available: {available_builders()}"
            )

    def make_builder(self) -> TreeBuilder:
        """Build the configured tree builder (``builder=None`` builds
        the registry default)."""
        kwargs: Dict[str, Any] = {}
        if self.anchors is not None:
            kwargs["anchors"] = self.anchors
        if self.anchor_base is not None:
            kwargs["base"] = self.anchor_base
        if self.anchor_seed is not None:
            kwargs["seed"] = self.anchor_seed
        return get_builder(self.builder, **kwargs)


#: The pipeline's configurable stages and the config class of each --
#: the keys are the ``distance=`` / ``tree=`` keyword names.
STAGE_CONFIGS = {"distance": DistanceConfig, "tree": TreeConfig}


def resolve_tree_stage(
    tree: Any = None,
    *,
    default: Optional[Callable[[], Optional[TreeBuilder]]] = None,
) -> Tuple[Optional[TreeBuilder], TreeConfig]:
    """Turn a ``tree=`` spec into ``(builder, config)``.

    ``default`` builds the aligner's historical builder when the spec
    names none (e.g. neighbour joining for the CLUSTALW-like aligner;
    center-star returns ``None`` there -- its own caterpillar order).
    """
    config = TreeConfig.coerce(tree)
    if isinstance(tree, TreeBuilder):
        return tree, config
    if config.builder is None:
        return (default() if default is not None else get_builder(None)), config
    return config.make_builder(), config
