"""Per-layer wall attribution measured from outside the program.

A :class:`LayerTracer` wraps public functions and methods of the ``repro``
package in timing spans.  Each span records its duration and the part of
that duration covered by nested spans on the same thread; the difference is
the span's *self time*.  Nothing inside ``src/`` changes: functions are
replaced at every module attribute that refers to them (the names are looked
up there at call time, e.g. ``repro.spgemm.variants.spgemm``), and methods
are replaced on the class that defines them.  :meth:`LayerTracer.restore`
puts every original back.

Spans are kept per thread, so the service's dispatcher thread and the
benchmark's generator thread each form their own span trees.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from importlib import import_module
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    #: wall of outermost activations only (recursion is not double-counted)
    total_s: float = 0.0


@dataclass
class _ThreadState:
    #: open spans, innermost last: [name, seconds covered by children]
    stack: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    depth: dict = field(default_factory=dict)


class LayerTracer:
    """Wrap callables in self-timing spans; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list = []
        #: per-span hooks ``hook(tracer, result, args, kwargs)`` run on exit
        self._hooks: dict = {}
        #: free-form exact counters filled in by hooks
        self.counters: dict[str, float] = {}

    # -- span bookkeeping -----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def ancestor(self, prefix: str) -> str | None:
        """Name of the innermost open span on this thread starting with
        ``prefix``, or None."""
        for name, _ in reversed(self._state().stack):
            if name.startswith(prefix):
                return name
        return None

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + value

    def call(self, name: str, fn, args, kwargs):
        st = self._state()
        frame = [name, 0.0]
        st.stack.append(frame)
        st.depth[name] = st.depth.get(name, 0) + 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            st.stack.pop()
            st.depth[name] -= 1
            if st.stack:
                st.stack[-1][1] += dur
            rec = st.stats.get(name)
            if rec is None:
                rec = st.stats[name] = SpanStats()
            rec.calls += 1
            rec.self_s += dur - frame[1]
            if st.depth[name] == 0:
                rec.total_s += dur
        hook = self._hooks.get(name)
        if hook is not None:
            hook(self, result, args, kwargs)
        return result

    # -- patching ------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__qualname__ = getattr(fn, "__qualname__", name)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        wrapped.__wrapped__ = fn
        return wrapped

    def wrap_function(self, name: str, fn, hook=None) -> int:
        """Replace ``fn`` at every ``repro`` module attribute bound to it.

        Returns the number of lookup sites patched (at least one, or the
        wrapper could never fire).
        """
        if hook is not None:
            self._hooks[name] = hook
        wrapped = self._wrapper(name, fn)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, fn))
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no lookup site found for {name} ({fn!r})")
        return sites

    def wrap_method(self, name: str, cls, attr: str, hook=None) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) with a span."""
        if hook is not None:
            self._hooks[name] = hook
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrapper(name, raw.__func__))
        else:
            new = self._wrapper(name, raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def restore(self) -> None:
        """Put back every patched original (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Span statistics summed over all threads."""
        out: dict[str, SpanStats] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, rec in st.stats.items():
                acc = out.setdefault(name, SpanStats())
                acc.calls += rec.calls
                acc.self_s += rec.self_s
                acc.total_s += rec.total_s
        return out

    def open_spans(self) -> int:
        with self._lock:
            threads = list(self._threads)
        return sum(len(st.stack) for st in threads)


# -- the stack's layers ----------------------------------------------------------

#: every span the traced run installs, by layer (the span names double as
#: the prefixes of the per-layer metrics)
SPANS = (
    "core.mfbc",
    "core.mfbf",
    "core.mfbr",
    "core.adaptive",
    "core.approx.sampler",
    "core.engine",
    "spgemm.select",
    "spgemm.execute",
    "dist.spgemm",
    "dist.redistribute",
    "dist.gather",
    "dist.blockwise",
    "sparse.kernel",
    "sparse.construct",
    "sparse.elementwise",
    "machine.charge",
    "machine.executor",
    "memory.manager",
    "serve.submit",
    "serve.client",
    "serve.update_graph",
    "serve.batch",
    "graphs.generate",
)


def _count_kernel_ops(tracer: LayerTracer, result, args, kwargs) -> None:
    if result.ops is not None:
        tracer.add("sparse.kernel.ops", float(result.ops))


def _count_construct_nnz(tracer: LayerTracer, result, args, kwargs) -> None:
    tracer.add("sparse.construct.nnz", float(args[0].nnz))


def _count_product(tracer: LayerTracer, result, args, kwargs) -> None:
    phase = tracer.ancestor("core.mf")
    if phase in ("core.mfbf", "core.mfbr"):
        tracer.add("core.products." + phase.split(".")[1])


@contextmanager
def tracing(tracer: LayerTracer, registry):
    """Inside the block, every layer is wrapped and a ``repro.obs`` session
    records the program's own counters into ``registry``."""
    from repro import obs

    instrument(tracer)
    obs.enable(metrics=registry)
    try:
        yield
    finally:
        obs.disable()
        tracer.restore()


def instrument(tracer: LayerTracer) -> None:
    """Install a span around every public entry point of every layer."""
    # import_module, not ``import a.b as c``: ``repro.spgemm`` and
    # ``repro.sparse.spgemm`` are also function names on their packages
    approx = import_module("repro.core.approx")
    core_mfbc = import_module("repro.core.mfbc")
    core_mfbf = import_module("repro.core.mfbf")
    core_mfbr = import_module("repro.core.mfbr")
    rmat = import_module("repro.graphs.rmat")
    weights = import_module("repro.graphs.weights")
    service = import_module("repro.serve.service")
    kernel = import_module("repro.sparse.spgemm")
    variants = import_module("repro.spgemm.variants")
    from repro.core.engine import SequentialEngine
    from repro.dist.distmat import DistMat
    from repro.dist.engine import DistributedEngine
    from repro.machine.executor import LocalExecutor
    from repro.machine.machine import Machine
    from repro.memory.manager import MemoryManager
    from repro.sparse.spmatrix import SpMat
    from repro.spgemm.selector import AutoPolicy, PinnedPolicy, Square2DPolicy

    functions = [
        ("core.mfbc", core_mfbc.mfbc, None),
        ("core.mfbc", core_mfbc.mfbc_per_source, None),
        ("core.mfbf", core_mfbf.mfbf, None),
        ("core.mfbr", core_mfbr.mfbr, None),
        ("core.adaptive", approx.adaptive_bc, None),
        ("spgemm.execute", variants.execute_plan, None),
        ("sparse.kernel", kernel.spgemm, _count_kernel_ops),
        ("graphs.generate", rmat.rmat_graph, None),
        ("graphs.generate", weights.with_random_weights, None),
    ]
    methods = [
        ("core.approx.sampler", approx.SamplerState,
         ("empty", "update", "merged", "mean_and_variance", "merge",
          "to_payload", "from_payload"), None),
        ("core.engine", SequentialEngine, ("spgemm",), _count_product),
        ("spgemm.select", AutoPolicy, ("select",), None),
        ("spgemm.select", PinnedPolicy, ("select",), None),
        ("spgemm.select", Square2DPolicy, ("select",), None),
        ("dist.spgemm", DistributedEngine, ("spgemm",), _count_product),
        ("dist.redistribute", DistMat, ("redistribute",), None),
        ("dist.gather", DistMat, ("gather",), None),
        ("dist.blockwise", DistMat,
         ("combine", "map", "zip_map", "filter", "zip_filter"), None),
        ("sparse.construct", SpMat, ("__init__",), _count_construct_nnz),
        ("sparse.elementwise", SpMat,
         ("combine", "map", "zip_map", "filter", "zip_filter"), None),
        ("machine.charge", Machine,
         ("charge_collective", "charge_pointtopoint", "charge_compute",
          "charge_overhead", "charge_spill", "charge_allocation",
          "allocate", "free"), None),
        ("machine.executor", LocalExecutor, ("run_tasks", "run_spgemm"), None),
        ("memory.manager", MemoryManager,
         ("store", "register", "touch", "relieve", "spill_all", "snapshot"),
         None),
        ("serve.submit", service.BCService, ("submit",), None),
        ("serve.client", service.BCService, ("poll", "result"), None),
        ("serve.update_graph", service.BCService, ("update_graph",), None),
        ("serve.batch", service.BCService, ("_execute",), None),
    ]
    for name, fn, hook in functions:
        tracer.wrap_function(name, fn, hook)
    for name, cls, attrs, hook in methods:
        for attr in attrs:
            tracer.wrap_method(name, cls, attr, hook)
