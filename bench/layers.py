"""The traced run: per-layer numbers, all taken from outside the program.

Three sources, none of them inside ``src/``: spans the benchmark records
around its own calls (the byte-checked replay, the clients, the store
wrapper), public result objects (``MsaResult.ledger``/``bucket_sizes``,
``gateway.metrics()``), and fixed kernel probes.  A metric that does not
apply to a workload (``core.*`` without Sample-Align-D, ``pool.*``
without a pool) reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.align.batchdp import affine_score_batch
from repro.align.dp import affine_align
from repro.align.profile import Profile
from repro.align.profile_align import (
    ProfileAlignConfig,
    align_profiles,
    profile_score_matrix,
)
from repro.engine import run_request
from repro.msa.registry import get_aligner
from repro.parcomp.launcher import run_spmd

from bench.host import cpu_seconds, host_cpu_ticks, vm_hwm_mib
from bench.replay import replay
from bench.session import Session
from bench.trace import Recorder, Span, durations_by_name
from bench.workloads import Inputs

#: Share of ``--seconds`` the (program solve, replay on, replay off) loop
#: may use; at least two rounds run whatever they cost.
REPLAY_SHARE = 0.6
WARM_PASS_SHARE = 0.05

#: name -> unit of every per-layer metric, in BENCHMARK.json order.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.replay_serial_s": "s",
    "core.critical_path_s": "s",
    "parcomp.wall_over_serial": "ratio",
    "parcomp.launch_noop_s": "s",
    "parcomp.messages": "count",
    "parcomp.bytes": "B",
    "parcomp.modeled_s": "s",
    "parcomp.compute_total_s": "s",
    "pool.spawn_s": "s",
    "pool.worker_rss_mib": "MiB",
    "kmer.rank_s": "s",
    "samplesort.pivot_s": "s",
    "msa.local_align_s": "s",
    "msa.local_align_max_s": "s",
    "core.ancestor_s": "s",
    "core.tweak_s": "s",
    "core.glue_s": "s",
    "core.bucket_max": "count",
    "core.bucket_imbalance": "ratio",
    "distance.all_pairs_s": "s",
    "distance.pairs": "count",
    "tree.build_s": "s",
    "tree.merge_s": "s",
    "tree.merge_nodes": "count",
    "align.refine_s": "s",
    "align.affine_cells_per_s": "1/s",
    "align.batch_cells_per_s": "1/s",
    "align.profile_cells_per_s": "1/s",
    "engine.from_dict_s": "s",
    "engine.hash_s": "s",
    "engine.run_overhead_s": "s",
    "serve.submit_s": "s",
    "serve.ticket_wait_s": "s",
    "serve.store_get_s": "s",
    "serve.store_put_s": "s",
    "serve.store_bytes": "B",
    "serve.requests": "count",
    "serve.computed": "count",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.cache_hit_ratio": "ratio",
    "proc.import_s": "s",
    "proc.cpu_s": "s",
    "proc.steal_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
}


def _noop_allgather(comm) -> int:
    """The smallest SPMD program: one collective, nothing else."""
    return len(comm.allgather(comm.rank))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def kernel_probes(inputs: Inputs) -> Dict[str, float]:
    """Cells per second of the three DP entry points at the workload's L.

    One ``affine_align``, 32 pairs through ``affine_score_batch`` and one
    ``align_profiles`` of two 8-row profiles; cells are counted exactly
    from the score-matrix shapes.  Best of three: a probe measures the
    kernel, not the host's bursts.
    """
    config = ProfileAlignConfig()
    seqs = list(inputs.families[0].sequences)
    profiles = [Profile.from_sequence(s) for s in seqs[:8]]
    gaps = config.gaps
    mats = [
        profile_score_matrix(profiles[i % 8], profiles[(i + 1) % 8], config)
        for i in range(32)
    ]
    # Two 8-row profiles need 16 sequences; the serve families have 12,
    # so the second block comes from the next family (ids made distinct).
    other = [s.with_id("o" + s.id) for s in inputs.families[1].sequences]
    draft = get_aligner("muscle-draft")
    blocks = [Profile(draft.align(seqs[:8])), Profile(draft.align(other[:8]))]

    def rate(cells: int, fn: Callable[[], Any]) -> float:
        return cells / min(_timed(fn)[0] for _ in range(3))

    return {
        "align.affine_cells_per_s": rate(
            mats[0].size,
            lambda: affine_align(mats[0], gaps.open, gaps.extend),
        ),
        "align.batch_cells_per_s": rate(
            sum(m.size for m in mats),
            lambda: affine_score_batch(mats, gaps.open, gaps.extend),
        ),
        "align.profile_cells_per_s": rate(
            blocks[0].n_columns * blocks[1].n_columns,
            lambda: align_profiles(blocks[0], blocks[1], config),
        ),
    }


def measure(session: Session, seconds: float) -> Dict[str, Any]:
    """Run the traced protocol; returns the raw facts ``metrics`` reads."""
    workload, inputs, rec = session.workload, session.inputs, session.rec
    steal0, ticks0 = host_cpu_ticks()
    off = Recorder(enabled=False)
    touched = sorted({i for s in inputs.streams for i in s})

    def replay_all(recorder: Recorder) -> float:
        """Replay every touched family; its bytes must equal the program's."""
        total = 0.0
        for family in touched:
            dt, aln = _timed(lambda: replay(inputs.requests[family], recorder))
            total += dt
            if aln.to_fasta() == session.first_fasta.get(family):
                session.ok()
            else:
                session.fail(f"replay of family {family} differs from program")
        return total

    # The serving session on the traced stack; its cold submission is
    # also the warm-up solve and fixes the bytes every later output must
    # equal.
    session.cold_submission()
    warm = session.warm_pass(seconds * WARM_PASS_SHARE)
    replay_all(off)  # warm-up, discarded

    facts: Dict[str, Any] = {
        "program_wall": [], "replay_on": [], "replay_off": [],
        "cpu": [], "overhead": [], "replay_ids": [],
        "gateway": warm.gateway_metrics, "last": None,
    }
    t_begin = time.perf_counter()
    while (
        len(facts["program_wall"]) < 2
        or time.perf_counter() - t_begin < seconds * REPLAY_SHARE
    ):
        rec.solve += 1
        pids = session.stack.worker_pids()
        cpu0 = cpu_seconds(pids)
        solved = session.solve(0)
        if solved is None:
            break
        dt, outcome = solved
        facts["cpu"].append(cpu_seconds(pids) - cpu0)
        facts["program_wall"].append(dt)
        facts["last"] = outcome
        if workload.serves:
            facts["gateway"] = outcome.gateway_metrics
            dt, outcome = _timed(lambda: run_request(inputs.requests[0]))
        # run_request minus the aligner call the result itself timed.
        facts["overhead"].append(dt - outcome.wall_time)
        rec.solve += 1
        facts["replay_ids"].append(rec.solve)
        facts["replay_on"].append(replay_all(rec))
        facts["replay_off"].append(replay_all(off))

    facts["kernels"] = kernel_probes(inputs)
    facts["launch_noop"] = []
    if workload.engine == "sample-align-d":
        backend = workload.engine_kwargs.get("backend")
        for _ in range(6):
            facts["launch_noop"].append(_timed(lambda: run_spmd(
                workload.n_procs, _noop_allgather, backend=backend
            ))[0])
    facts["pool_spawn"] = []
    if workload.pool_workers:
        from repro.pool import WorkerPool

        for _ in range(3):
            t0 = time.perf_counter()
            pool = WorkerPool(max_workers=workload.pool_workers)
            try:
                pool.warm_up()
                facts["pool_spawn"].append(time.perf_counter() - t0)
            finally:
                pool.close()
    facts["worker_rss_mib"] = sum(
        vm_hwm_mib(pid) for pid in session.stack.worker_pids()
    )
    launches = [session.launch_probe() for _ in range(2)]
    facts["import"] = [p["import_s"] for p in launches if p]
    steal1, ticks1 = host_cpu_ticks()
    facts["steal_frac"] = (steal1 - steal0) / max(ticks1 - ticks0, 1)
    facts["spans"] = rec.spans
    return facts


def _replay_medians(
    spans: List[Span], replay_ids: List[int],
    value: Callable[[Span], float] = lambda s: s.duration,
) -> Dict[str, float]:
    """Per span name: the median over the traced replays of the summed
    ``value`` of that replay's spans (0 for a name that never occurs)."""
    sums: Dict[int, Dict[str, float]] = {
        rid: defaultdict(float) for rid in replay_ids
    }
    for s in spans:
        if s.solve in sums:
            sums[s.solve][s.name] += value(s)
    names = {name for per_replay in sums.values() for name in per_replay}
    return defaultdict(float, {
        name: _median([per_replay[name] for per_replay in sums.values()])
        for name in names
    })


def _critical_path(spans: List[Span], replay_ids: List[int]) -> float:
    """The paper's parallel-time model: per phase the slowest rank, phases
    (and the root's serial ones) added up.  Free of GIL noise because the
    replay runs one rank at a time."""
    per_replay = []
    for rid in replay_ids:
        cell: Dict[Tuple[int, int], float] = defaultdict(float)
        for s in spans:
            if s.solve == rid and "phase" in s.attrs:
                cell[(s.attrs["phase"], s.attrs["rank"])] += s.duration
        slowest: Dict[int, float] = defaultdict(float)
        for (phase, _rank), dt in cell.items():
            slowest[phase] = max(slowest[phase], dt)
        per_replay.append(sum(slowest.values()))
    return _median(per_replay)


def metrics(facts: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    spans: List[Span] = facts["spans"]
    rids: List[int] = facts["replay_ids"]
    serial = _median(facts["replay_off"])
    by_name = durations_by_name(spans)
    seconds = _replay_medians(spans, rids)
    pairs = _replay_medians(spans, rids, lambda s: s.attrs.get("pairs", 0))
    nodes = _replay_medians(spans, rids, lambda s: s.attrs.get("nodes", 0))

    local_max = []
    for rid in rids:
        local = [
            s.duration for s in spans
            if s.solve == rid and s.name == "msa.local_align"
        ]
        local_max.append(max(local, default=0.0))

    details = getattr(facts["last"], "details", None)  # MsaResult, if any
    ledger = getattr(details, "ledger", None)
    buckets = getattr(details, "bucket_sizes", np.zeros(0))
    gateway = facts["gateway"]
    service = gateway["service"]
    lookups = service["hits"] + service["misses"]

    values: Dict[str, float] = {
        "core.replay_serial_s": serial,
        "core.critical_path_s": _critical_path(spans, rids),
        "parcomp.wall_over_serial": _median(facts["program_wall"]) / serial,
        "parcomp.launch_noop_s": _median(facts["launch_noop"]),
        "parcomp.messages": ledger.n_messages() if ledger else 0,
        "parcomp.bytes": ledger.total_bytes() if ledger else 0,
        "parcomp.modeled_s": ledger.modeled_time() if ledger else 0.0,
        "parcomp.compute_total_s": ledger.total_compute() if ledger else 0.0,
        "pool.spawn_s": _median(facts["pool_spawn"]),
        "pool.worker_rss_mib": facts["worker_rss_mib"],
        "kmer.rank_s": seconds["kmer.rank"],
        "samplesort.pivot_s": (
            seconds["samplesort.sample"]
            + seconds["samplesort.pivot"]
            + seconds["samplesort.bucket"]
        ),
        "msa.local_align_s": seconds["msa.local_align"],
        "msa.local_align_max_s": _median(local_max),
        "core.ancestor_s": seconds["core.ancestor"],
        "core.tweak_s": seconds["core.tweak"],
        "core.glue_s": seconds["core.glue"],
        "core.bucket_max": int(buckets.max()) if buckets.size else 0,
        "core.bucket_imbalance": (
            float(buckets.max() / buckets.mean()) if buckets.size else 0.0
        ),
        "distance.all_pairs_s": seconds["distance.all_pairs"],
        "distance.pairs": pairs["distance.all_pairs"],
        "tree.build_s": seconds["tree.build"],
        "tree.merge_s": seconds["tree.merge"],
        "tree.merge_nodes": nodes["tree.merge"],
        "align.refine_s": seconds["align.refine"],
        **facts["kernels"],
        "engine.from_dict_s": _median(by_name["engine.from_dict"]),
        "engine.hash_s": _median(by_name["engine.hash"]),
        "engine.run_overhead_s": _median(facts["overhead"]),
        "serve.submit_s": _median(by_name["serve.submit"]),
        "serve.ticket_wait_s": _median(by_name["serve.ticket_wait"]),
        "serve.store_get_s": _median(by_name["serve.store_get"]),
        "serve.store_put_s": _median(by_name["serve.store_put"]),
        "serve.store_bytes": service["cache_backend"]["bytes"],
        "serve.requests": gateway["admitted"] + gateway["coalesced"],
        "serve.computed": service["computed"],
        "serve.coalesced": gateway["coalesced"],
        "serve.rejected": (
            gateway["rejected_queue_full"] + gateway["rejected_rate_limited"]
        ),
        "serve.cache_hit_ratio": service["hits"] / lookups if lookups else 0.0,
        "proc.import_s": _median(facts["import"]),
        "proc.cpu_s": _median(facts["cpu"]),
        "proc.steal_frac": facts["steal_frac"],
        "obs.trace_overhead_frac": _median(facts["replay_on"]) / serial - 1.0,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
