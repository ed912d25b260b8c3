"""The benchmark's workloads: seeded inputs, the measured calls, and checks.

Three *batch* workloads time one betweenness-centrality call at a time on a
pool of ``POOL`` seeded graphs, cycling through the pool until the run's
seconds are spent.  The fourth drives the query service in an open loop
(see :mod:`serveload`).  Every workload reports every end-to-end metric
that ``BENCHMARK.json`` lists; ``README.md`` beside this file says what
each one means on each workload.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Entry points the traced run wraps are called through these packages'
# attributes, where the wrappers are installed.
import repro.apps as apps
import repro.core as core
import repro.dist as dist
import repro.graphs as rgraphs
import repro.serve as serve
from repro import obs
from repro.analysis.perfmodel import _best_estimate, model_run
from repro.baselines import brandes_bc
from repro.machine import CostParams, Machine
from repro.serve.loadgen import DEFAULT_MIX, generate_queries
from repro.spgemm import PinnedPolicy
from repro.spgemm.selector import enumerate_plans

import hostspeed
import layers
import serveload

#: ranks of the simulated machine in the distributed batch workloads
P = 16
#: R-MAT scale and average degree of the MFBC graphs (shared by mfbc-seq
#: and mfbc-dist, so the two time the same inputs).  At scale 8 a
#: distributed call takes 1-2 s, so every pool graph runs at least twice.
SCALE, DEGREE = 8, 8
#: sources per MFBF/MFBr sweep
BATCH = 64
#: seeded graphs per run; one call's wall moves ~10% between R-MAT seeds,
#: so each run averages over a pool
POOL = 3
#: adaptive sampling: the paper's integer weights on a smaller graph, since
#: every call sweeps ~300 sampled sources whatever the graph size
ADAPTIVE_SCALE, EPSILON, DELTA, ADAPTIVE_BATCH = 8, 0.2, 0.1, 64
#: each pool graph is called at least this often in a timed run, so every
#: graph has a median and the exact-repeat self-test always runs
MIN_ROUNDS = 2
#: set-up is timed in blocks of repetitions with the garbage collector off;
#: setup_s is the median block's time per set-up
SETUP_BLOCKS, SETUP_BLOCK_REPS = 11, 20
#: graph the warm-up call runs on, before any timing
WARMUP_SCALE = 6

#: serving: R-MAT scale, processor count, offered rate and update period.
#: At 25 q/s the dispatcher is mostly idle, so latency follows host speed
#: about linearly; busier rates let queueing amplify host drift (README.md).
SERVE_SCALE, SERVE_P, SERVE_RATE, SERVE_UPDATE_EVERY = 8, 4, 25.0, 47
#: seeded graph versions the updates cycle through.  A sweep's cost and the
#: per-rank peak move 10-30% between seeds; a run averages over several.
SERVE_VERSIONS = 8
#: latency limit for the serving workload's goodput (reference seconds)
SERVE_LATENCY_LIMIT_S = 0.25
#: the query mix: the service's default without approx_bc.  An approx_bc
#: miss sweeps 8 sources, and whether 7 or 16 of a run's ~19 approx_bc
#: queries missed the cache set the latency tail and a third of the
#: modeled words.  Sampling is measured on adaptive-weighted-ca instead.
SERVE_MIX = {k: v for k, v in DEFAULT_MIX.items() if k != "approx_bc"}

@dataclass
class Tally:
    """Operations attempted and failed, plus the benchmark's self-tests."""

    ops: int = 0
    ops_failed: int = 0
    tests: int = 0
    tests_failed: int = 0
    problems: list = field(default_factory=list)
    #: what the run measured besides its metrics (printed as a comment)
    notes: dict = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.ops_failed += 1
            self.problems.append(what)

    def test(self, ok: bool, what: str) -> None:
        self.tests += 1
        if not ok:
            self.tests_failed += 1
            self.problems.append("self-test: " + what)


def sub_seeds(seed: int, k: int) -> list[int]:
    """``k`` independent 32-bit seeds derived from the workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


def timed_setup(fn: Callable[[], object], discard: Callable | None = None,
                notes: dict | None = None) -> tuple[float, object]:
    """Set-up time in reference seconds, and the last set-up's value.

    ``fn`` runs in ``SETUP_BLOCKS`` blocks of ``SETUP_BLOCK_REPS`` with the
    garbage collector off.  Host-speed probes go between the blocks, and
    each block's time per set-up is rescaled by the probes around it; the
    result is the median block.  ``discard`` releases every value but the
    last, outside the timing.
    """
    blocks, raw = [], []
    value = None
    before = hostspeed.probe()
    gc.disable()
    try:
        for b in range(SETUP_BLOCKS):
            spent = 0.0
            for r in range(SETUP_BLOCK_REPS):
                t0 = time.perf_counter()
                value = fn()
                spent += time.perf_counter() - t0
                last = b == SETUP_BLOCKS - 1 and r == SETUP_BLOCK_REPS - 1
                if discard is not None and not last:
                    discard(value)
            after = hostspeed.probe()
            raw.append(spent / SETUP_BLOCK_REPS)
            blocks.append(hostspeed.to_reference(raw[-1], before, after))
            before = after
    finally:
        gc.enable()
    if notes is not None:
        notes["setup_raw_s"] = statistics.median(raw)
    return statistics.median(blocks), value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def normalized_max_err(scores: np.ndarray, exact: np.ndarray) -> float:
    n = len(exact)
    return float(np.max(np.abs(scores - exact))) / ((n - 1) * (n - 2))


# -- batch workloads ------------------------------------------------------------


@dataclass
class Call:
    """What one measured call produced."""

    wall: float
    scores: np.ndarray
    modeled: dict
    fingerprint: tuple
    samples: int = 0
    #: ``wall`` in reference seconds (see :mod:`hostspeed`)
    ref: float = 0.0
    #: the program's own trace summary (``MFBCStats.summary()``), if any
    summary: dict | None = None


def price_sequential(stats, graph) -> dict:
    """The repository's α-β pricing of a sequential trace on ``P`` ranks.

    Seconds, words and messages come from ``model_run``; the per-rank peak
    is the largest ``memory_words`` among the plans that its selection
    (``_best_estimate``) picks for the trace's products.
    """
    run = model_run(stats, graph, P)
    cost, plans = CostParams(), enumerate_plans(P)
    peak = max(
        (
            _best_estimate(
                P, batch.sources, graph.n, graph.n, it.frontier_nnz,
                graph.nnz_adjacency, it.product_nnz, it.ops, cost, None, plans,
            ).memory_words
            for batch in stats.batches
            for it in batch.iterations
        ),
        default=0.0,
    )
    return {
        "modeled_s": run.seconds,
        "modeled_words": run.words,
        "modeled_msgs": run.msgs,
        "rank_peak_words": float(peak),
    }


def ledger_modeled(machine) -> dict:
    led = machine.ledger
    return {
        "modeled_s": led.critical_time(),
        "modeled_words": led.critical_words(),
        "modeled_msgs": led.critical_msgs(),
        "rank_peak_words": float(machine.memory_peak()),
    }


class BatchWorkload:
    """A pool of seeded graphs, one measured call per graph at a time."""

    name = ""
    #: "requests" slower than this do not count towards goodput (s)
    latency_limit_s = 0.0

    def graphs(self, seed: int, scale: int) -> list:
        raise NotImplementedError

    def engine(self):
        """A fresh ``(engine, machine or None)`` for one call."""
        raise NotImplementedError

    def invoke(self, graph, engine, index: int):
        """The measured call; ``index`` is the graph's place in the pool."""
        raise NotImplementedError

    def references(self, graphs: list) -> list:
        raise NotImplementedError

    def verify(self, result, reference) -> str | None:
        """None when ``result`` is correct, else what is wrong."""
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------------

    def setup(self, seed: int):
        graphs = self.graphs(seed, None)
        self.engine()
        return graphs

    def call(self, graph, index: int, tracer=None) -> Call:
        """One measured call on a fresh engine; with ``tracer``, the call
        runs inside the benchmark's root span ``bench.call``."""
        engine, machine = self.engine()
        args = (graph, engine, index)
        t0 = time.perf_counter()
        if tracer is None:
            result = self.invoke(*args)
        else:
            result = tracer.call("bench.call", self.invoke, args, {})
        wall = time.perf_counter() - t0
        samples = int(getattr(result, "samples_used", 0))
        stats = getattr(result, "stats", None)
        summary = stats.summary() if stats is not None else None
        extra = (tuple(sorted(summary.items())) if summary is not None else (),)
        if machine is not None:
            modeled = ledger_modeled(machine)
            ledger = machine.ledger
            extra += (
                tuple(sorted(ledger.snapshot().items())),
                tuple(sorted(ledger.category_words.items())),
            )
        else:
            # pricing is a pure function of the trace: price each one once
            memo = self.__dict__.setdefault("_priced", {})
            key = (id(graph), extra)
            if key not in memo:
                memo[key] = price_sequential(result.stats, graph)
            modeled = memo[key]
        fingerprint = (digest(result.scores), samples) + extra + tuple(
            sorted(modeled.items())
        )
        return Call(wall, result.scores, modeled, fingerprint, samples,
                    summary=summary)

    def run(self, seed: int, seconds: float, trace: bool,
            layer_names: list[str]) -> tuple[dict, Tally]:
        tally = Tally()
        setup_s, graphs = timed_setup(lambda: self.setup(seed), notes=tally.notes)
        refs = self.references(graphs)
        warm = self.graphs(seed, WARMUP_SCALE)[0]
        self.invoke(warm, self.engine()[0], 0)
        if trace:
            return self.traced(seed, graphs, refs, tally, layer_names), tally

        # Each call is bracketed by host-speed probes (a probe after one
        # call is the probe before the next) and rescaled to reference
        # seconds.  Every graph runs MIN_ROUNDS times; further rounds run
        # while the next call is expected to end within ``seconds``.
        calls: dict[int, list[Call]] = {i: [] for i in range(len(graphs))}
        repeats = 0
        t_start = time.perf_counter()
        before = hostspeed.probe()
        k = 0
        while True:
            i = k % len(graphs)
            c = self.call(graphs[i], i)
            after = hostspeed.probe()
            c.ref = hostspeed.to_reference(c.wall, before, after)
            before = after
            problem = self.verify(c, refs[i])
            tally.op(problem is None, f"{self.name} graph {i}: {problem}")
            if calls[i]:
                repeats += 1
                tally.test(
                    c.fingerprint == calls[i][0].fingerprint,
                    f"{self.name} graph {i}: a repeat call changed scores, "
                    "ledger or modeled metrics",
                )
            calls[i].append(c)
            k += 1
            if k >= MIN_ROUNDS * len(graphs):
                elapsed = time.perf_counter() - t_start
                nxt = calls[k % len(graphs)]
                # the next call's wall, grown by the probes' and checks' share
                est = statistics.median(x.wall for x in nxt) * elapsed / sum(
                    x.wall for cs in calls.values() for x in cs
                )
                if elapsed + est > seconds:
                    break
        tally.notes.update(
            calls=k,
            repeat_checks=repeats,
            raw_wall_s=statistics.fmean(
                statistics.median(x.wall for x in cs) for cs in calls.values()
            ),
        )

        refs_s = [x.ref for cs in calls.values() for x in cs]
        answered = [w for w in refs_s if w <= self.latency_limit_s]
        medians = [statistics.median(x.ref for x in cs) for cs in calls.values()]

        def pool_mean(stat) -> float:
            return statistics.fmean(stat(cs) for cs in calls.values())

        p50 = statistics.fmean(medians)
        metrics = {
            "wall_s": p50,
            "setup_s": setup_s,
            **{
                key: pool_mean(lambda cs: cs[0].modeled[key])
                for key in ("modeled_s", "modeled_words", "modeled_msgs",
                            "rank_peak_words")
            },
            "host_peak_rss_mb": peak_rss_mb(),
            "ok_frac": (tally.ops - tally.ops_failed) / tally.ops,
            # each call is a request that always misses (there is no cache);
            # a run makes too few calls for a tail, so the tail is taken
            # over the pool graphs' medians: the slowest input's typical call
            "miss_latency_p50_s": p50,
            "latency_p95_s": float(np.percentile(medians, 95)),
            "goodput_qps": len(answered) / sum(refs_s),
        }
        return metrics, tally

    def traced(self, seed, graphs, refs, tally, layer_names) -> dict:
        """Per graph, an untraced then a traced call, then the self-tests.

        Alternating the two keeps slow drift in host speed out of the
        tracing overhead.
        """
        tracer = layers.LayerTracer()
        registry = obs.Metrics()
        with layers.tracing(tracer, registry):
            self.graphs(seed, None)  # generation, for graphs.generate
        plain, traced = [], []
        for i, g in enumerate(graphs):
            plain.append(self.call(g, i))
            with layers.tracing(tracer, registry):
                traced.append(self.call(g, i, tracer))

        for i, (a, b) in enumerate(zip(plain, traced)):
            problem = self.verify(b, refs[i])
            tally.op(problem is None, f"{self.name} graph {i} (traced): {problem}")
            tally.test(
                a.fingerprint == b.fingerprint,
                f"{self.name} graph {i}: traced and untraced calls differ in "
                "scores, ledger or modeled metrics",
            )
        metrics = layer_metrics(tracer, registry, layer_names, "bench.call")
        metrics["core.approx.samples"] = float(sum(c.samples for c in traced))
        if self.name == "adaptive-weighted-ca":
            metrics["core.approx.max_err"] = max(
                normalized_max_err(c.scores, r) for c, r in zip(traced, refs)
            )
        metrics["trace_overhead_s"] = sum(c.wall for c in traced) - sum(
            c.wall for c in plain
        )
        check_trace(self.name, tracer, metrics, "bench.call", tally)
        if all(c.summary is not None for c in traced):
            # the wrappers' counts against the program's own trace: a
            # product or kernel call made through a name the wrappers did
            # not patch shows up here
            for metric, keys, key in (
                ("core.products", ("core.products.mfbf", "core.products.mfbr"), "matmuls"),
                ("sparse.kernel.ops", ("sparse.kernel.ops",), "ops"),
            ):
                counted = sum(metrics[k] for k in keys)
                traced_by_program = sum(c.summary[key] for c in traced)
                tally.test(
                    counted == traced_by_program,
                    f"{self.name}: {metric} counts {counted:g}, the program's "
                    f"trace {traced_by_program:g}",
                )
        return metrics


class MfbcSeq(BatchWorkload):
    name = "mfbc-seq"
    latency_limit_s = 5.0

    def graphs(self, seed, scale):
        return [
            rgraphs.rmat_graph(scale or SCALE, DEGREE, seed=s)
            for s in sub_seeds(seed, POOL)
        ]

    def engine(self):
        return core.SequentialEngine(), None

    def invoke(self, graph, engine, index):
        return core.mfbc(graph, BATCH, engine=engine)

    def references(self, graphs):
        return [brandes_bc(g) for g in graphs]

    def verify(self, result, reference):
        if np.allclose(result.scores, reference, rtol=1e-9, atol=1e-9):
            return None
        return "scores disagree with brandes_bc"


class MfbcDist(MfbcSeq):
    name = "mfbc-dist"
    latency_limit_s = 15.0

    def engine(self):
        machine = Machine(P, executor="serial")
        return dist.DistributedEngine(machine), machine

    def references(self, graphs):
        return [core.mfbc(g, BATCH, engine=core.SequentialEngine()).scores for g in graphs]

    def verify(self, result, reference):
        if np.array_equal(result.scores, reference):
            return None
        return "scores are not bit-identical to the sequential engine's"


class AdaptiveWeightedCA(BatchWorkload):
    name = "adaptive-weighted-ca"
    latency_limit_s = 15.0

    def graphs(self, seed, scale):
        #: the sampler's schedule seed per pool graph
        self.schedules = sub_seeds(seed, POOL)
        return [
            rgraphs.with_random_weights(
                rgraphs.rmat_graph(scale or ADAPTIVE_SCALE, DEGREE, seed=s), seed=s
            )
            for s in self.schedules
        ]

    def engine(self):
        machine = Machine(P, executor="serial")
        policy = PinnedPolicy.ca_mfbc(P, 4)
        return dist.DistributedEngine(machine, policy=policy), machine

    def invoke(self, graph, engine, index):
        return core.adaptive_bc(
            graph, epsilon=EPSILON, delta=DELTA, seed=self.schedules[index],
            batch_size=ADAPTIVE_BATCH, engine=engine,
        )

    def references(self, graphs):
        return [brandes_bc(g) for g in graphs]

    def verify(self, result, reference):
        err = normalized_max_err(result.scores, reference)
        if err <= EPSILON:
            return None
        return f"normalized max error {err:.4g} exceeds epsilon {EPSILON}"


# -- traced-run metrics and self-tests ---------------------------------------------

#: spans each workload must fire (every wrapper fires on some workload)
_CORE_SEQ = {"core.mfbc", "core.mfbf", "core.mfbr", "sparse.kernel",
             "sparse.construct", "sparse.elementwise", "graphs.generate"}
_DISTRIBUTED = {"spgemm.select", "spgemm.execute", "dist.spgemm",
                "dist.blockwise", "dist.gather", "machine.charge",
                "machine.executor", "memory.manager"}
EXPECTED_SPANS = {
    "mfbc-seq": _CORE_SEQ | {"core.engine"},
    "mfbc-dist": _CORE_SEQ | _DISTRIBUTED | {"dist.redistribute"},
    "adaptive-weighted-ca": (_CORE_SEQ - {"core.mfbc"}) | _DISTRIBUTED
    | {"core.adaptive", "core.approx.sampler"},
    "serve-mixed": _CORE_SEQ | _DISTRIBUTED
    | {"dist.redistribute", "serve.submit", "serve.client", "serve.update_graph"},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: the share of the root span's wall that the layers below ``core`` must
#: cover.  The rest is the root's own self time (``unattributed_s``) plus
#: the self time of the ``core`` spans, the algorithms' orchestration.  A hot
#: path that reaches a lower layer through a name no wrapper patches moves
#: its time into a ``core`` span's self time and fails the test.
BELOW_CORE_MIN = 0.90


def layer_metrics(tracer: layers.LayerTracer, om, names: list[str],
                  root: str) -> dict:
    """The per-layer metrics ``names`` from the span stats and the obs
    counters; ``unattributed_s`` is the self time of the span ``root``."""
    st = tracer.stats()
    out = dict.fromkeys(names, 0.0)
    for span in layers.SPANS:
        rec = st.get(span, layers.SpanStats())
        for suffix, value in (("calls", rec.calls), ("self_s", rec.self_s)):
            if f"{span}.{suffix}" in out:
                out[f"{span}.{suffix}"] = float(value)
    out["core.approx.sampler_self_s"] = st.get(
        "core.approx.sampler", layers.SpanStats()
    ).self_s
    ops = tracer.counters.get("sparse.kernel.ops", 0.0)
    kernel_wall = st.get("sparse.kernel", layers.SpanStats()).total_s
    out["sparse.kernel.ops"] = ops
    out["sparse.kernel.mops_per_s"] = _ratio(ops, kernel_wall) / 1e6
    out["sparse.kernel.fast_share"] = _ratio(
        om.total("kernel.dispatch", outcome="hit"), om.total("kernel.dispatch")
    )
    out["sparse.construct.nnz"] = tracer.counters.get("sparse.construct.nnz", 0.0)
    hits = om.total("spgemm.replication_cache", outcome="hit")
    out["spgemm.replication.hit_ratio"] = _ratio(
        hits, hits + om.total("spgemm.replication_cache", outcome="miss")
    )
    # machine.words.<category> for every category listed; the rest is "other"
    listed = 0.0
    for name in names:
        category = name.removeprefix("machine.words.")
        if category != name and category != "other":
            out[name] = om.total("machine.words", category=category)
            listed += out[name]
    out["machine.words.other"] = om.total("machine.words") - listed
    out["machine.msgs"] = om.total("machine.msgs")
    out["memory.reliefs"] = om.total("memory.reliefs")
    out["memory.spill.words"] = om.total("memory.spill.words")
    for phase in ("mfbf", "mfbr"):
        out[f"core.products.{phase}"] = tracer.counters.get(f"core.products.{phase}", 0.0)
    out["unattributed_s"] = st.get(root, layers.SpanStats()).self_s
    return out


def check_trace(name: str, tracer: layers.LayerTracer, metrics: dict,
                root: str, tally: Tally) -> None:
    """The traced run's self-tests (see README.md)."""
    st = tracer.stats()
    for span in sorted(EXPECTED_SPANS[name]):
        fired = span in st and st[span].calls > 0
        tally.test(fired, f"{name}: the {span} wrapper never fired")
    if name == "mfbc-seq":
        tally.test(
            metrics["dist.redistribute.calls"] == 0,
            "mfbc-seq: dist.redistribute fired on the sequential engine",
        )
    tally.test(tracer.open_spans() == 0, f"{name}: spans left open")
    total = st.get(root, layers.SpanStats()).total_s
    core_self = sum(rec.self_s for span, rec in st.items() if span.startswith("core."))
    share = 1.0 - _ratio(metrics["unattributed_s"] + core_self, total)
    tally.notes["below_core_share"] = share
    tally.test(
        total > 0 and share >= BELOW_CORE_MIN,
        f"{name}: the layers below core cover {share:.1%} of {root}'s "
        f"{total:.3f}s, less than {BELOW_CORE_MIN:.0%}",
    )


# -- the serving workload ------------------------------------------------------------


def same_answer(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if got.dtype.kind == "f" or want.dtype.kind == "f":
        return bool(np.array_equal(got, want, equal_nan=True))
    return bool(np.array_equal(got, want))


class ServeReferences:
    """Sequential-engine answers for every query, per graph version."""

    def __init__(self, versions: list) -> None:
        self.versions = versions
        self._memo: dict = {}

    def answer(self, version: int, spec: dict):
        parity = version % len(self.versions)
        g = self.versions[parity]
        alg = spec["algorithm"]
        if alg in serve.SOURCE_ALGORITHMS:
            key = (parity, alg)
            if key not in self._memo:
                every = np.arange(g.n, dtype=np.int64)
                seq = core.SequentialEngine()
                fn = {
                    "bc_source": core.mfbc_per_source,
                    "bfs": apps.bfs_levels,
                    "sssp": apps.sssp_distances,
                    "widest": apps.widest_path_widths,
                }[alg]
                self._memo[key] = fn(g, every, engine=seq)
            return self._memo[key][spec["source"]]
        key = (parity, alg)
        if key not in self._memo:
            if alg == "connected":
                value = apps.connected_components(g)
            elif alg == "triangles":
                value = apps.triangle_count(g)
            else:
                raise ValueError(f"no reference for {alg!r}")
            self._memo[key] = value
        return self._memo[key]


class ServeMixed:
    name = "serve-mixed"

    def setup(self, seed: int):
        s = sub_seeds(seed, SERVE_VERSIONS)
        versions = [rgraphs.rmat_graph(SERVE_SCALE, DEGREE, seed=x) for x in s]
        service = serve.BCService(versions[0], p=SERVE_P, executor="serial")
        return versions, service

    def schedule(self, seed: int, seconds: float, n_vertices: int):
        """The seeded query stream and its send offsets (not set-up work)."""
        qseed = sub_seeds(seed, SERVE_VERSIONS + 1)[-1]
        n = max(1, int(SERVE_RATE * seconds))
        specs = generate_queries(n, n_vertices, seed=qseed, mix=SERVE_MIX)
        offsets = serveload.fixed_rate_offsets(n, SERVE_RATE)
        return specs, offsets

    def warm_up(self, seed: int) -> None:
        g = rgraphs.rmat_graph(WARMUP_SCALE, DEGREE, seed=seed)
        service = serve.BCService(g, p=SERVE_P, executor="serial")
        try:
            specs = generate_queries(32, g.n, seed=seed, mix=SERVE_MIX)
            for qid in [service.submit(**spec) for spec in specs]:
                service.result(qid, timeout=serveload.RESULT_TIMEOUT_S)
        finally:
            service.close()

    def run(self, seed: int, seconds: float, trace: bool,
            layer_names: list[str]) -> tuple[dict, Tally]:
        tally = Tally()
        setup_s, (versions, service) = timed_setup(
            lambda: self.setup(seed), lambda made: made[1].close(), tally.notes
        )
        specs, offsets = self.schedule(seed, seconds, versions[0].n)
        refs = ServeReferences(versions)
        self.warm_up(seed)
        # latencies are rescaled by the host's speed during the schedule
        try:
            with hostspeed.Sampler() as host:
                outcomes, stats = self.drive(service, specs, offsets, versions)
        finally:
            service.close()
        scale = hostspeed.to_reference(1.0, host.speed(), host.speed())
        self.check_answers(outcomes, refs, tally)
        if not trace:
            tally.notes["raw_miss_latency_p50_s"] = miss_p50(outcomes)
            return self.end_to_end(
                outcomes, service, setup_s, seconds, scale, tally
            ), tally

        tracer = layers.LayerTracer()
        registry = obs.Metrics()
        with layers.tracing(tracer, registry):
            versions, service = self.setup(seed)
            try:
                traced, stats = self.drive(service, specs, offsets, versions)
            finally:
                service.close()
        self.check_answers(traced, refs, tally)
        metrics = layer_metrics(tracer, registry, layer_names, "serve.batch")
        metrics.update(self.serve_layer(traced, stats))
        metrics["trace_overhead_s"] = miss_p50(traced) - miss_p50(outcomes)
        check_trace(self.name, tracer, metrics, "serve.batch", tally)
        return metrics, tally

    @staticmethod
    def drive(service, specs, offsets, versions):
        outcomes = serveload.run_open_loop(
            service, specs, offsets, versions, SERVE_UPDATE_EVERY
        )
        return outcomes, service.stats()

    @staticmethod
    def check_answers(outcomes, refs: ServeReferences, tally: Tally) -> None:
        for i, o in enumerate(outcomes):
            if o.state != "done":
                tally.op(False, f"serve query {i} ({o.spec['algorithm']}): {o.state}")
                continue
            ok = same_answer(o.result, refs.answer(o.version, o.spec))
            tally.op(ok, f"serve query {i} ({o.spec}): wrong answer at "
                     f"graph version {o.version}")
            o.correct = ok

    @staticmethod
    def end_to_end(outcomes, service, setup_s, seconds, scale, tally) -> dict:
        """End-to-end metrics; latencies are multiplied by ``scale`` into
        reference seconds, while the schedule fixes ``wall_s``."""
        done = [o for o in outcomes if o.state == "done"]
        good = [
            o for o in done
            if o.correct and o.latency * scale <= SERVE_LATENCY_LIMIT_S
        ]
        # with nothing answered the run still reports (ok_frac reads 0)
        wall = max((o.due + o.latency for o in done), default=seconds)
        return {
            "wall_s": wall,
            "setup_s": setup_s,
            **ledger_modeled(service.machine),
            "host_peak_rss_mb": peak_rss_mb(),
            "ok_frac": (tally.ops - tally.ops_failed) / tally.ops,
            "miss_latency_p50_s": miss_p50(outcomes) * scale,
            "latency_p95_s": scale * float(
                np.percentile([o.latency for o in done] or [0.0], 95)
            ),
            "goodput_qps": len(good) / wall,
        }

    @staticmethod
    def serve_layer(outcomes, stats) -> dict:
        done = [o for o in outcomes if o.state == "done"]
        computed = [o for o in done if not o.cache_hit]
        waits = [o.queue_s for o in computed] or [0.0]
        return {
            "serve.queue_wait_p50_s": float(np.percentile(waits, 50)),
            "serve.queue_wait_p99_s": float(np.percentile(waits, 99)),
            "serve.compute_p50_s": float(
                np.percentile([o.compute_s for o in computed] or [0.0], 50)
            ),
            "serve.batches": float(stats["batches"]),
            "serve.coalescing_factor": float(stats["coalescing_factor"]),
            "serve.cache.hit_rate": _ratio(len(done) - len(computed), len(done)),
            "serve.shed": float(sum(o.state == "shed" for o in outcomes)),
            "serve.degraded": float(stats["degraded"]),
            "serve.generator_lag_p99_s": float(
                np.percentile([o.lateness for o in outcomes], 99)
            ),
        }


def miss_p50(outcomes) -> float:
    """Median latency of computed (not cache-hit) ``bc_source`` queries.

    The mix's cheaper traversal queries (bfs, sssp, widest) compute in
    well under half a BC sweep's time; pooled with them, the median sits on
    the boundary between the two modes and jumps from run to run.
    """
    lat = [
        o.latency for o in outcomes
        if o.state == "done" and not o.cache_hit
        and o.spec["algorithm"] == "bc_source"
    ]
    return statistics.median(lat) if lat else 0.0


WORKLOADS = {
    "mfbc-seq": MfbcSeq,
    "mfbc-dist": MfbcDist,
    "adaptive-weighted-ca": AdaptiveWeightedCA,
    "serve-mixed": ServeMixed,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 layer_names: list[str]):
    """``(metrics, tally)`` for one run; metrics carry no units yet.

    ``layer_names`` are the per-layer metrics a traced run reports.
    """
    return WORKLOADS[name]().run(seed, seconds, trace, layer_names)
