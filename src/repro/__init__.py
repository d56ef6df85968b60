"""Sample-Align-D: high-performance multiple sequence alignment.

A from-scratch reproduction of *Sample-Align-D: A High Performance Multiple
Sequence Alignment System using Phylogenetic Sampling and Domain
Decomposition* (Saeed & Khokhar, IPDPS 2008), together with every substrate
the paper depends on:

- :mod:`repro.seq` -- sequences, alphabets, FASTA, substitution matrices.
- :mod:`repro.kmer` -- k-mer counting, Edgar's k-mer match fraction (one
  implementation, which the ``ktuple`` distance estimator shares), and the
  k-mer *rank* (centralized and sample-globalized variants) that drives
  the decomposition.
- :mod:`repro.align` -- affine-gap pairwise and profile-profile alignment
  kernels, progressive alignment, refinement, consensus.
- :mod:`repro.msa` -- complete sequential MSA systems used as local aligners
  and as Table-2 comparators (MUSCLE-like, CLUSTALW-like, T-Coffee-like,
  MAFFT-like).
- :mod:`repro.distance` -- the unified distance subsystem: pluggable
  pairwise estimators (``ktuple``, ``kmer-fraction``, ``full-dp``;
  shared ``kimura`` post-transform) behind one registry, and
  a tiled :func:`~repro.distance.all_pairs` scheduler that runs the
  condensed upper triangle serially, on the execution backends, or
  cooperatively inside an SPMD program -- byte-identical output either
  way.  Every guide-tree baseline's distance stage routes through it.
- :mod:`repro.tree` -- the unified guide-tree subsystem: the
  :class:`~repro.tree.GuideTree` merge order (with Newick I/O),
  pluggable tree builders (``upgma``, ``wpgma``, ``nj``,
  ``single-linkage``) behind one registry,
  :func:`~repro.tree.merge_schedule` (the level/dependency scheduler
  turning any guide tree into a task DAG of independent profile
  merges), and :func:`~repro.tree.progressive_merge` (the merge walk:
  serial where its caller runs, or cooperative in-SPMD --
  byte-identical alignments either way).  Every guide-tree baseline's
  tree stage routes through it.
- :mod:`repro.parcomp` -- a virtual message-passing cluster with an
  mpi4py-style API, byte metering and an alpha-beta communication cost model.
- :mod:`repro.samplesort` -- regular sampling / PSRS machinery.
- :mod:`repro.core` -- the Sample-Align-D algorithm itself.
- :mod:`repro.datagen` -- Rose-style synthetic families, a synthetic archaeal
  proteome, and a PREFAB-like quality benchmark.
- :mod:`repro.metrics` -- Q/TC/SP scores and rank statistics.
- :mod:`repro.perfmodel` -- the calibrated analytic cluster-performance model
  used to regenerate the paper-scale figures.
- :mod:`repro.engine` -- the unified engine API: every backend (sequential
  systems, the parallel baseline, Sample-Align-D) behind one
  :class:`~repro.engine.api.Aligner` protocol, one registry and one
  cached :class:`~repro.engine.service.AlignmentService` that runs each
  request on the thread that asks.
- :mod:`repro.serve` -- the serving layer: an admission-controlled,
  request-coalescing :class:`~repro.serve.gateway.AlignmentGateway`
  (the one scheduler of served requests), a
  disk-backed content-addressed :class:`~repro.serve.store.ResultStore`,
  an HTTP frontend, and a seeded open/closed-loop traffic generator
  (``python -m repro serve`` / ``python -m repro loadtest``).
- :mod:`repro.obs` -- observability: mergeable metrics (counters, gauges,
  log-bucketed histograms) whose picklable snapshots ride back from every
  execution backend, cross-process spans with per-stage duration
  breakdowns and Chrome-trace export, and Prometheus text exposition
  (``GET /metrics?format=prom``, ``python -m repro trace``).

Quickstart::

    import repro
    from repro.datagen import rose

    fam = rose.generate_family(n_sequences=40, mean_length=120, seed=0)

    # One facade, every engine: distributed or sequential.
    result = repro.align(fam.sequences, engine="sample-align-d",
                         n_procs=4, seed=0)
    print(result.summary())
    print(result.alignment.to_fasta()[:400])
    baseline = repro.align(fam.sequences, engine="muscle")

    # Batched execution with result caching, on this thread.
    from repro import AlignRequest, AlignmentService

    svc = AlignmentService()
    req = AlignRequest(tuple(fam.sequences), engine="center-star")
    jobs = svc.run_batch([req, req])     # second job is a cache hit
    print(jobs[1].cache_hit, svc.stats)

The legacy entry points (:func:`repro.sample_align_d`,
:func:`repro.msa.get_aligner`) remain available and resolve through the
same unified registry.
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

# Public names are imported lazily (PEP 562) so that `import repro` stays
# cheap and subpackages can be used independently.
_LAZY = {
    "Aligner": ("repro.engine.api", "Aligner"),
    "Alignment": ("repro.seq.alignment", "Alignment"),
    "AlignRequest": ("repro.engine.api", "AlignRequest"),
    "AlignResult": ("repro.engine.api", "AlignResult"),
    "AlignmentGateway": ("repro.serve.gateway", "AlignmentGateway"),
    "AlignmentService": ("repro.engine.service", "AlignmentService"),
    "DistanceConfig": ("repro.distance.config", "DistanceConfig"),
    "DistanceEstimator": ("repro.distance.estimators", "DistanceEstimator"),
    "ResultStore": ("repro.serve.store", "ResultStore"),
    "all_pairs": ("repro.distance.allpairs", "all_pairs"),
    "available_distance_estimators": (
        "repro.distance.estimators",
        "available_estimators",
    ),
    "GuideTree": ("repro.tree.guide_tree", "GuideTree"),
    "MergeSchedule": ("repro.tree.schedule", "MergeSchedule"),
    "MsaResult": ("repro.core.driver", "MsaResult"),
    "SampleAlignDConfig": ("repro.core.config", "SampleAlignDConfig"),
    "TreeBuilder": ("repro.tree.builders", "TreeBuilder"),
    "TreeConfig": ("repro.tree.config", "TreeConfig"),
    "available_tree_builders": ("repro.tree.builders", "available_builders"),
    "merge_schedule": ("repro.tree.schedule", "merge_schedule"),
    "progressive_merge": ("repro.tree.merge", "progressive_merge"),
    "Sequence": ("repro.seq.sequence", "Sequence"),
    "SequenceSet": ("repro.seq.sequence", "SequenceSet"),
    # ``repro.align`` is the (callable) kernel subpackage: calling it is
    # the unified alignment facade, importing from it gives the kernels.
    "align": ("repro.align", None),
    "available_engines": ("repro.engine.registry", "available_engines"),
    "disable_tracing": ("repro.obs.tracing", "disable_tracing"),
    "enable_tracing": ("repro.obs.tracing", "enable_tracing"),
    "get_engine": ("repro.engine.registry", "get_engine"),
    "metrics_registry": ("repro.obs.metrics", "registry"),
    "span": ("repro.obs.tracing", "span"),
    "stage_breakdown": ("repro.obs.tracing", "stage_breakdown"),
    "register_engine": ("repro.engine.registry", "register_engine"),
    "sample_align_d": ("repro.core.driver", "sample_align_d"),
    "unregister_engine": ("repro.engine.registry", "unregister_engine"),
}

__all__ = sorted(_LAZY) + ["__version__"]

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.core.config import SampleAlignDConfig
    from repro.core.driver import MsaResult, sample_align_d
    from repro.tree.builders import (
        TreeBuilder,
        available_builders as available_tree_builders,
    )
    from repro.tree.config import TreeConfig
    from repro.tree.guide_tree import GuideTree
    from repro.tree.merge import progressive_merge
    from repro.tree.schedule import MergeSchedule, merge_schedule
    from repro.distance.allpairs import all_pairs
    from repro.distance.config import DistanceConfig
    from repro.distance.estimators import (
        DistanceEstimator,
        available_estimators as available_distance_estimators,
    )
    from repro.engine import align
    from repro.engine.api import Aligner, AlignRequest, AlignResult
    from repro.engine.registry import (
        available_engines,
        get_engine,
        register_engine,
        unregister_engine,
    )
    from repro.engine.service import AlignmentService
    from repro.obs.metrics import registry as metrics_registry
    from repro.obs.tracing import (
        disable_tracing,
        enable_tracing,
        span,
        stage_breakdown,
    )
    from repro.seq.alignment import Alignment
    from repro.seq.sequence import Sequence, SequenceSet
    from repro.serve.gateway import AlignmentGateway
    from repro.serve.store import ResultStore


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value
