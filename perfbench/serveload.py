"""Open-loop load for the serving workload, through the public client API.

One generator thread sends a fixed, seeded query stream at a fixed rate,
whether or not earlier queries have finished: independent users make an
open loop.  Each query is timed from
its *scheduled* send time, so a stall charges its wait to every query
queued behind it.  Its latency is the time from its due time until
``submit()`` returned (the generator's lateness plus the submit call, which
answers cache hits in full), plus the ``queue_seconds`` and
``compute_seconds`` that ``poll()`` reports.

Every ``update_every`` queries the graph is replaced by the next of the
given versions (the serving workload cycles through eight).  Updates run
on their own thread when the host has a second core, so a write stall
delays answers but not the generator's sends.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.overload import AdmissionError
from repro.serve.service import QueryError

#: wall seconds the collector waits for one query before calling it failed
RESULT_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One scheduled query and what became of it."""

    spec: dict
    due: float
    #: how late the generator started the submit call (its own health)
    lateness: float
    #: due time until ``submit()`` returned
    submitted: float = 0.0
    #: done / shed / expired / failed / cancelled
    state: str = "failed"
    latency: float | None = None
    cache_hit: bool = False
    queue_s: float = 0.0
    compute_s: float = 0.0
    version: int | None = None
    result: object = None
    #: set by the benchmark's answer check
    correct: bool = False


def fixed_rate_offsets(n: int, rate: float) -> np.ndarray:
    """Send offsets of ``n`` queries at a fixed ``rate`` per second."""
    return np.arange(n, dtype=np.float64) / rate


def run_open_loop(
    service,
    specs: list[dict],
    offsets: np.ndarray,
    versions: list,
    update_every: int,
) -> list[Outcome]:
    """Drive ``service`` with ``specs`` at ``offsets``; return one outcome
    per scheduled query, in schedule order.

    ``versions`` are the graphs an update cycles through: update ``k``
    installs ``versions[k % len(versions)]``.
    """
    outcomes: list[Outcome] = []
    ids: list[str | None] = []
    updates: queue.Queue = queue.Queue()
    threaded_updates = (os.cpu_count() or 1) >= 2

    def updater() -> None:
        while True:
            graph = updates.get()
            if graph is None:
                return
            service.update_graph(graph)

    start = time.perf_counter() + 0.05

    def generator() -> None:
        n_updates = 0
        for i, spec in enumerate(specs):
            if i and update_every and i % update_every == 0:
                n_updates += 1
                graph = versions[n_updates % len(versions)]
                if threaded_updates:
                    updates.put(graph)
                else:
                    service.update_graph(graph)
            due = start + float(offsets[i])
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lateness = max(0.0, time.perf_counter() - due)
            out = Outcome(spec=spec, due=due - start, lateness=lateness)
            try:
                ids.append(service.submit(**spec))
            except AdmissionError:
                out.state = "shed"
                ids.append(None)
            out.submitted = time.perf_counter() - due
            outcomes.append(out)

    errors: list[BaseException] = []

    def guarded(fn):
        def run() -> None:
            try:
                fn()
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)
                raise
        return run

    threads = [threading.Thread(target=guarded(generator), name="perfbench-load")]
    if threaded_updates:
        threads.append(
            threading.Thread(target=guarded(updater), name="perfbench-update")
        )
    for t in threads:
        t.start()
    threads[0].join()
    updates.put(None)
    for t in threads[1:]:
        t.join()
    if errors:
        raise RuntimeError("the open-loop load generator failed") from errors[0]

    for out, qid in zip(outcomes, ids):
        if qid is None:
            continue
        try:
            service.result(qid, timeout=RESULT_TIMEOUT_S)
        except (QueryError, TimeoutError):
            pass
        snap = service.poll(qid)
        out.state = snap["state"]
        out.cache_hit = bool(snap["cache_hit"])
        out.queue_s = float(snap["queue_seconds"] or 0.0)
        out.compute_s = float(snap["compute_seconds"] or 0.0)
        out.version = snap["graph_version"]
        if out.state == "done":
            out.result = snap["result"]
            out.latency = out.submitted + out.queue_s + out.compute_s
    return outcomes
