"""Serializable configuration of a distance stage.

:class:`DistanceConfig` is the one description of a distance stage --
which estimator, with which knobs, executed where, placed where.  It is
JSON-able, so it travels through ``engine_kwargs`` (request content
hashes and the serving layer's coalescing keys see the effective
choice) and it is what an aligner's ``distance=`` field resolves to.

A ``distance=`` spec is any of: ``None`` (the aligner's historical
estimator, placed by :func:`~repro.distance.allpairs.auto_workers`, in
memory), a registry name (``"full-dp"``), a
:class:`DistanceConfig` or its dict form, or a ready
:class:`~repro.distance.estimators.DistanceEstimator` instance.
:func:`resolve_distance_stage` turns a spec into ``(estimator, config)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple

from repro.distance.estimators import (
    _ESTIMATORS,
    DistanceEstimator,
    available_estimators,
    get_estimator,
)
from repro.distance.transforms import TRANSFORMS

__all__ = [
    "DistanceConfig",
    "StageConfig",
    "resolve_distance_stage",
    "scoring_estimator_defaults",
    "validate_backend_name",
]


def scoring_estimator_defaults(
    matrix: Any, gaps: Any, k: int
) -> Dict[str, Dict[str, Any]]:
    """Per-estimator constructor defaults derived from a baseline's knobs.

    :func:`resolve_distance_stage` applies these to a *named* estimator,
    so ``distance="full-dp"`` picks up the aligner's own scoring
    matrix/gaps and ``distance="ktuple"`` its ``kmer_k``.
    """
    return {
        "full-dp": {"matrix": matrix, "gaps": gaps},
        "ktuple": {"k": k},
        "kmer-fraction": {"k": k},
    }


def validate_backend_name(backend: Optional[str], what: str = "backend") -> None:
    """Raise ``ValueError`` unless ``backend`` is None or registered."""
    if backend is None:
        return
    from repro.parcomp.backends import available_backends

    if str(backend).lower() not in available_backends():
        raise ValueError(
            f"{what} {backend!r} is not a registered execution backend; "
            f"available: {available_backends()}"
        )


class StageConfig:
    """What :class:`DistanceConfig` and :class:`~repro.tree.TreeConfig`
    share: the spec forms they accept, dict round-trips and the
    field-wise merge the gateway folds defaults with.

    Every field is optional; ``None`` means "the aligner's (or the
    registry's) default".  The first field names what runs (estimator /
    builder).  A key that is not a field -- by keyword or in the dict
    form -- is a ``ValueError``, never ignored.
    """

    #: "distance" / "tree" -- the stage, for error messages.
    _stage: ClassVar[str]
    #: The class a ready-made instance of this stage has.
    _made: ClassVar[type]
    #: Fields holding registry names, lower-cased on construction so
    #: equal specs compare, serialise and hash equal.
    _names: ClassVar[Tuple[str, ...]]
    #: ``{qualifier: the field it qualifies}`` -- see :meth:`over`.
    _follows: ClassVar[Mapping[str, str]]

    def __new__(cls, *args: Any, **kwargs: Any):
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys {sorted(unknown)}")
        return super().__new__(cls)

    def _normalise(self) -> None:
        for name in self._names:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, str(value).lower())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return cls(**dict(data))

    @classmethod
    def coerce(cls, spec: Any):
        """Any ``distance=`` / ``tree=`` spec as a config.

        A ready estimator/builder instance coerces to the empty
        config.
        """
        if spec is None or isinstance(spec, cls._made):
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        if isinstance(spec, Mapping):
            return cls.from_dict(spec)
        raise ValueError(
            f"{cls._stage} must be a registry name, a {cls.__name__} (or "
            f"its dict form), a {cls._made.__name__}, or None -- got {spec!r}"
        )

    def over(self, default: "StageConfig"):
        """Field-wise merge with ``default``; this config's fields win.

        A qualifier (``k``, ``store_dir``, ``anchors``, ...) is inherited
        only together with the field it qualifies: a request that names
        its own estimator does not pick up the default estimator's ``k``.
        """
        merged = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lead = self._follows.get(f.name)
            if value is None and (lead is None or getattr(self, lead) is None):
                value = getattr(default, f.name)
            merged[f.name] = value
        return type(self)(**merged)


@dataclass(frozen=True)
class DistanceConfig(StageConfig):
    """One distance stage, described completely (validated, JSON-able).

    Attributes
    ----------
    estimator:
        Registry name (``"ktuple"``, ``"kmer-fraction"``, ``"full-dp"``;
        see :func:`repro.distance.available_estimators`).
        ``None`` = the aligner's historical estimator.
    k:
        k-mer length for the alignment-free estimators (``None`` = the
        estimator's/baseline's default; rejected by estimators without a
        ``k``).  Needs a named ``estimator``.
    transform:
        Identity post-transform (``"linear"`` or ``"kimura"``; ``None``
        = estimator default).  Rejected by ``ktuple`` (its distance is
        not on an identity scale).  Needs a named ``estimator``.
    backend:
        Execution backend of the tiled all-pairs scheduler
        (``"threads"``/``"pool"``; ``None`` with ``workers`` unset =
        serial or ``threads`` as
        :func:`~repro.distance.allpairs.auto_workers` chooses).
    workers:
        Rank count for the scheduler (``None`` = usable core count;
        ``1`` without a backend = compute serially).
    out:
        Result placement (see :data:`repro.distance.OUT_MODES`):
        ``"memory"`` (dense), ``"condensed"`` (the flat upper triangle,
        half the RAM), or ``"memmap"`` (disk-backed tile store; O(tile)
        working memory).  ``None`` = the caller's default.
    store_dir:
        Tile-store directory for ``out="memmap"`` (``None`` = a fresh
        temporary store, removed once the result is mapped; pass a path
        to make the run resumable).  A path, so never lower-cased.
    """

    estimator: Optional[str] = None
    k: Optional[int] = None
    transform: Optional[str] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    out: Optional[str] = None
    store_dir: Optional[str] = None

    _stage = "distance"
    _made = DistanceEstimator
    _names = ("estimator", "backend", "out")
    _follows = {"k": "estimator", "transform": "estimator", "store_dir": "out"}

    def __post_init__(self) -> None:
        from repro.distance.allpairs import OUT_MODES

        self._normalise()
        validate_backend_name(self.backend, "distance backend")
        if self.workers is not None and self.workers < 1:
            raise ValueError("distance workers must be >= 1 (or None)")
        if self.out is not None and self.out not in OUT_MODES:
            raise ValueError(
                f"unknown distance out mode {self.out!r}; one of {OUT_MODES}"
            )
        if self.store_dir is not None and self.out != "memmap":
            raise ValueError("distance store_dir requires out='memmap'")
        if self.estimator is None:
            if self.k is not None or self.transform is not None:
                raise ValueError(
                    "k / transform qualify a named estimator; set "
                    "estimator too"
                )
        elif self.estimator not in available_estimators():
            raise ValueError(
                f"unknown distance estimator {self.estimator!r}; "
                f"available: {available_estimators()}"
            )
        else:
            factory = _ESTIMATORS[self.estimator].factory
            takes = {f.name for f in dataclasses.fields(factory)}
            for name in ("k", "transform"):
                if getattr(self, name) is not None and name not in takes:
                    raise ValueError(
                        f"distance estimator {self.estimator!r} takes "
                        f"no {name!r}"
                    )
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1 (or None)")
        if self.transform is not None and self.transform not in TRANSFORMS:
            raise ValueError(
                f"unknown identity transform {self.transform!r}; "
                f"one of {list(TRANSFORMS)}"
            )

    def make_estimator(
        self, defaults: Optional[Mapping[str, Any]] = None
    ) -> DistanceEstimator:
        """Build the estimator; explicit fields win over ``defaults``.

        ``estimator=None`` builds the registry default.
        """
        kwargs: Dict[str, Any] = dict(defaults or {})
        if self.k is not None:
            kwargs["k"] = self.k
        if self.transform is not None:
            kwargs["transform"] = self.transform
        return get_estimator(self.estimator, **kwargs)

    def require_unplaced(self, who: str) -> None:
        """The one "ranks may not nest a second backend" check."""
        if self.backend is not None or self.workers is not None:
            raise ValueError(
                f"{who} runs its distance stage inside its own SPMD "
                "ranks; a nested distance backend/workers choice "
                "(--distance-backend) is not supported"
            )


def resolve_distance_stage(
    distance: Any = None,
    *,
    default: Optional[Callable[[], DistanceEstimator]] = None,
    estimator_defaults: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Tuple[DistanceEstimator, DistanceConfig]:
    """Turn a ``distance=`` spec into ``(estimator, config)``.

    ``config`` carries the placement (``backend``/``workers``/``out``/
    ``store_dir``).  ``default`` builds the aligner's historical
    estimator when the spec names none.  ``estimator_defaults`` maps
    registry names to constructor defaults (e.g. the aligner's scoring
    matrix for ``"full-dp"``), applied to a named estimator; explicit
    config fields win over them.
    """
    config = DistanceConfig.coerce(distance)
    if isinstance(distance, DistanceEstimator):
        return distance, config
    if config.estimator is None:
        est = default() if default is not None else get_estimator(None)
    else:
        est = config.make_estimator(
            (estimator_defaults or {}).get(config.estimator)
        )
    return est, config
