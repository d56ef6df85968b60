"""The four workloads: their inputs, their serving stack, their clients.

Why each workload exists is recorded in ``BENCHMARK.json`` (``why``) and
``bench/README.md``.  Inputs are made from ``--seed`` alone; the program
only ever receives the generated sequences.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.datagen.rose import SequenceFamily, generate_family
from repro.engine import AlignmentService
from repro.engine.api import AlignRequest, AlignResult
from repro.metrics import qscore
from repro.seq.alignment import Alignment
from repro.serve import AlignmentGateway, ResultStore
from repro.serve.workload import WorkloadConfig, mix_indices

from bench.trace import Recorder

RELATEDNESS = 250.0
#: Closed-loop clients of a cold pass (coalescing needs more than one).
CLIENTS = 2
#: Requests each client keeps outstanding.  With one, every request is
#: two thread hand-offs across the GIL and the rate follows the host's
#: wake-up latency (1.4k-2.0k req/s from run to run); from two up the
#: gateway's workers stay busy.
WINDOW = 4
#: A warm pass has one client with as many outstanding as a cold pass has
#: in all: three threads on two cores instead of four, which repeats
#: better (see the README's noise section).
WARM_WINDOW = CLIENTS * WINDOW
#: Rows the quality score is taken over (evenly spaced in input order);
#: the all-pairs Q of 400 rows would cost 0.6 s per family.
QUALITY_ROWS = 96
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    n_seqs: int
    length: int
    #: Distinct families per run.  Batch workloads solve two per round,
    #: so a run's medians cover ten inputs and depend less on --seed.
    n_families: int
    n_procs: int = 4
    placement_seed: Optional[int] = None
    engine_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Worker processes of the pool the stack owns (0: no pool).
    pool_workers: int = 0
    #: Requests in one cold pass of the serve workload (0: batch workload,
    #: a solve is one ``run_request``).
    stream_requests: int = 0
    #: Share of ``--seconds`` spent on timed solves; the rest is warm passes.
    solve_share: float = 0.8

    @property
    def serves(self) -> bool:
        return self.stream_requests > 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sad_pool_p2", "sample-align-d", 400, 200, n_families=10,
            n_procs=2, placement_seed=0,
            engine_kwargs={"backend": "pool"}, pool_workers=2,
        ),
        Workload(
            "sad_default_p16", "sample-align-d", 128, 200, n_families=10,
            n_procs=16, placement_seed=0,
        ),
        Workload(
            "guidetree_fulldp", "clustalw", 48, 250, n_families=10,
            engine_kwargs={"distance": "full-dp"},
        ),
        Workload(
            "serve_zipf_coldwarm", "muscle", 12, 80, n_families=32,
            stream_requests=400,
        ),
    )
}


def derive_seed(*parts: Any) -> int:
    """A stable 63-bit seed from the run seed and a purpose."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _request(workload: Workload, family: SequenceFamily) -> AlignRequest:
    return AlignRequest(
        sequences=tuple(family.sequences),
        engine=workload.engine,
        n_procs=workload.n_procs,
        seed=workload.placement_seed,
        engine_kwargs=dict(workload.engine_kwargs),
    )


@dataclass
class Inputs:
    families: List[SequenceFamily]
    requests: List[AlignRequest]
    #: ``AlignRequest.to_dict()`` per family: what a client sends.
    payloads: List[Dict[str, Any]]
    #: Family indices each client submits in one cold pass.
    streams: List[List[int]]
    sha256: str

    @property
    def warm_stream(self) -> List[int]:
        """What the single client of a warm pass cycles through."""
        return [i for stream in self.streams for i in stream]


def zipf_streams(seed: int, n_requests: int, pool_size: int) -> List[List[int]]:
    """The zipf(s=1.1) request stream, split over the closed-loop clients."""
    config = WorkloadConfig(
        mix="zipf", pool_size=pool_size, zipf_s=1.1, seed=seed
    )
    base, extra = divmod(n_requests, CLIENTS)
    return [
        mix_indices(config, base + (1 if c < extra else 0), c)
        for c in range(CLIENTS)
    ]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    families = [
        generate_family(
            workload.n_seqs,
            workload.length,
            relatedness=RELATEDNESS,
            seed=derive_seed(workload.name, seed, i),
        )
        for i in range(workload.n_families)
    ]
    requests = [_request(workload, fam) for fam in families]
    if workload.serves:
        streams = zipf_streams(
            derive_seed(workload.name, seed, "stream"),
            workload.stream_requests,
            workload.n_families,
        )
    else:
        streams = [[0]] * CLIENTS
    digest = hashlib.sha256()
    for fam in families:
        for s in fam.sequences:
            digest.update(f">{s.id}\n{s.residues}\n".encode())
    digest.update(repr(streams).encode())
    return Inputs(
        families=families,
        requests=requests,
        payloads=[r.to_dict() for r in requests],
        streams=streams,
        sha256=digest.hexdigest(),
    )


def probe_request(workload: Workload, seed: int) -> AlignRequest:
    """The 6 x 60 request a set-up launch completes: same engine, backend
    and options as the workload, small enough that set-up is what it
    times."""
    family = generate_family(
        6, 60, relatedness=RELATEDNESS,
        seed=derive_seed(workload.name, seed, "probe"),
        track_alignment=False,
    )
    return _request(workload, family)


def quality(aln: Alignment, family: SequenceFamily) -> float:
    """Q against the generator's reference, over at most QUALITY_ROWS rows."""
    ids = list(family.reference.ids)
    step = -(-len(ids) // QUALITY_ROWS)
    rows = ids[::step]
    return qscore(aln.select_rows(rows), family.reference.select_rows(rows))


class TracedStore:
    """A ``CacheBackend`` that times a ``ResultStore`` from outside."""

    def __init__(self, store: ResultStore, rec: Recorder) -> None:
        self.store = store
        self.rec = rec

    def get(self, key: str) -> Optional[AlignResult]:
        with self.rec.span("serve.store_get"):
            return self.store.get(key)

    def put(self, key: str, result: AlignResult) -> None:
        with self.rec.span("serve.store_put"):
            self.store.put(key, result)

    def clear(self) -> None:
        self.store.clear()

    def __len__(self) -> int:
        return len(self.store)

    def stats(self) -> Dict[str, Any]:
        return self.store.stats()


class Stack:
    """What a workload serves from: gateway over a disk store (+ pool)."""

    def __init__(
        self, workload: Workload, store_dir: str, rec: Recorder
    ) -> None:
        self.pool = None
        if workload.pool_workers:
            from repro.pool import WorkerPool

            self.pool = WorkerPool(max_workers=workload.pool_workers)
        self.store = ResultStore(store_dir)
        cache = TracedStore(self.store, rec) if rec.enabled else self.store
        try:
            # The gateway installs the pool as the process default and
            # waits for its workers, so direct run_request calls with
            # backend="pool" land on the same warm workers.
            self.gateway = AlignmentGateway(
                AlignmentService(max_workers=CLIENTS, cache=cache),
                n_workers=CLIENTS,
                pool=self.pool,
            )
        except BaseException:
            if self.pool is not None:
                self.pool.close()
            raise

    def worker_pids(self) -> List[int]:
        return list(self.pool.stats()["worker_pids"]) if self.pool else []

    def close(self) -> None:
        try:
            self.gateway.close()
        finally:
            if self.pool is not None:
                self.pool.close()


@dataclass
class DriveResult:
    completed: int = 0
    elapsed: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: Seconds from building a request to holding its result.
    latencies: List[float] = field(default_factory=list)
    #: Last result seen per family index.
    results: Dict[int, AlignResult] = field(default_factory=dict)
    #: ``gateway.metrics()`` once the clients have finished.
    gateway_metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.completed + len(self.failures)


def drive(
    gateway: AlignmentGateway,
    inputs: Inputs,
    streams: List[List[int]],
    rec: Recorder,
    seconds: Optional[float] = None,
    window: int = WINDOW,
) -> DriveResult:
    """One closed-loop client per stream submits it through ``gateway``.

    Each client keeps ``window`` requests outstanding: it submits that
    many, waits for all of them, and only then submits more.  Each
    submission builds a fresh ``AlignRequest`` from its payload, as the
    HTTP path does (``content_hash`` memoises on the instance).  With
    ``seconds`` the streams repeat until the deadline; without, each is
    sent once.  A request that raises, is refused, times out or answers
    for another request is a failure.
    """
    out = DriveResult()
    lock = threading.Lock()
    barrier = threading.Barrier(len(streams) + 1)

    def client(c: int) -> None:
        latencies, failures, results = [], [], {}
        indices = iter(
            streams[c] if seconds is None else itertools.cycle(streams[c])
        )
        barrier.wait()
        deadline = None if seconds is None else time.perf_counter() + seconds
        while deadline is None or time.perf_counter() < deadline:
            batch = list(itertools.islice(indices, window))
            if not batch:
                break
            pending = []
            for idx in batch:
                t0 = time.perf_counter()
                try:
                    with rec.span("engine.from_dict"):
                        request = AlignRequest.from_dict(inputs.payloads[idx])
                    with rec.span("engine.hash"):
                        key = request.content_hash()
                    with rec.span("serve.submit"):
                        ticket = gateway.submit(
                            request, client_id=f"client-{c}"
                        )
                    pending.append((idx, key, t0, ticket))
                except Exception as exc:  # every failed request is counted
                    failures.append(f"family {idx}: {exc!r}")
            for idx, key, t0, ticket in pending:
                try:
                    with rec.span("serve.ticket_wait"):
                        result = ticket.wait(REQUEST_TIMEOUT_S)
                    if result.request_hash != key:
                        raise ValueError("result answers another request")
                    results[idx] = result
                    latencies.append(time.perf_counter() - t0)
                except Exception as exc:
                    failures.append(f"family {idx}: {exc!r}")
        with lock:
            out.completed += len(latencies)
            out.latencies.extend(latencies)
            out.failures.extend(failures)
            out.results.update(results)

    threads = [
        threading.Thread(target=client, args=(c,), name=f"bench-client-{c}")
        for c in range(len(streams))
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    out.elapsed = time.perf_counter() - t0
    out.gateway_metrics = gateway.metrics()
    return out
