"""Outside-in tracing for the benchmark's traced run.

Nothing under ``src/`` is instrumented for this: :class:`Tracer` swaps
timing wrappers in around the public entry points of each layer for the
length of a traced pass and restores the originals afterwards.  A wrapper
is installed where the caller looks the name up, because a module that
imported a function by name keeps its own binding: the kernels and
``encode_batch`` are patched in :mod:`repro.mc.sweep`,
``document_content_key`` in :mod:`repro.api.runner`, and
``driver_source_hash`` on the :mod:`repro.fabric.cas` module, which the
Runner reads as a module attribute at call time.

Spans are kept in memory as flat ``[name, start, end, spec]`` records.
The tree is rebuilt afterwards from interval containment, which is exact
here because every traced call runs in one thread (``jobs=1``).  A span's
self time is its duration minus the durations of its children; the
root's self time is the ``unattributed`` remainder, so the self times of
all spans add up to the root span.  ``SharedMedium.begin`` runs once per
packet and is counted, not timed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

ROOT = "bench.round"

# Span name -> layer, for the self-time table.
LAYER_OF = {
    ROOT: "unattributed",
    "bench.settle": "benchmark (gc, speed probes)",
    "runner.run_batch": "api.runner",
    "runner.spec": "api.runner",
    "driver": "experiments (driver bodies)",
    "cas.source_hash": "fabric.cas",
    "store.append": "api.store",
    "store.merge": "api.store",
    "store.scan": "api.store",
    "store.content_key": "api.store",
    "manifest.write": "fabric.manifest",
    "manifest.combine": "fabric.manifest",
    "result.to_dict": "api.result/serialization",
    "result.from_dict": "api.result/serialization",
    "heap.build": "netsim heap engine",
    "heap.run": "netsim heap engine",
    "heap.dispatch": "netsim heap engine",
    "epoch.build": "netsim.batched",
    "epoch.run": "netsim.batched",
    "la.table_build": "mc.link_abstraction",
    "sweep.run_batch": "mc.sweep",
    "viterbi.hard": "mc.viterbi",
    "viterbi.soft": "mc.viterbi",
}
KERNELS = (
    "scramble_batch",
    "encode_batch",
    "puncture_batch",
    "interleave_batch",
    "map_batch",
    "demap_batch",
    "demap_soft_batch",
    "deinterleave_batch",
    "depuncture_batch",
)
for _kernel in KERNELS:
    LAYER_OF[f"kernels.{_kernel}"] = "mc.kernels"


class Tracer:
    """In-memory span and counter recorder with install/uninstall patching."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.legs: list[tuple[str, float, float]] = []
        self.leg = ""
        self._patches: list[tuple[Any, str, Any]] = []
        self._link_abstractions: list[Any] = []

    # ---------------------------------------------------------------- record
    def add(self, name: str, start: float, end: float, spec: Any = None) -> None:
        """Record one finished span."""
        self.spans.append([name, start, end, spec])

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name* under the current leg."""
        self.counts[(self.leg, name)] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    @contextlib.contextmanager
    def in_leg(self, leg: str):
        """Attribute counters to *leg* and record its interval."""
        self.leg = leg
        start = time.perf_counter()
        try:
            yield
        finally:
            self.legs.append((leg, start, time.perf_counter()))
            self.leg = ""

    def reset(self) -> None:
        """Forget everything recorded (the patches stay installed)."""
        self.spans = []
        self.counts = Counter()
        self.legs = []
        self._link_abstractions = []

    # --------------------------------------------------------------- patches
    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _timed(self, function: Callable, name: str | Callable, after: Callable | None = None) -> Callable:
        add = self.add

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            end = time.perf_counter()
            add(name(args, kwargs) if callable(name) else name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str | Callable, after: Callable | None = None) -> None:
        """Time every call of ``owner.attr`` (function, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            self._replace(owner, attr, classmethod(self._timed(original.__func__, name, after)))
        else:
            self._replace(owner, attr, self._timed(original, name, after))

    def wrap_generator(self, owner: type, attr: str, name: str) -> None:
        """Time each step of a generator method as its own span.

        The consumer runs between steps, so one span over the whole
        iteration would swallow the consumer's work.
        """
        original = owner.__dict__[attr]
        add = self.add

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    add(name, start, time.perf_counter())
                    return
                add(name, start, time.perf_counter())
                yield item

        self._replace(owner, attr, wrapper)

    def count_calls(self, owner: type, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[(self.leg, name)] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        """Install every layer's wrappers; :meth:`uninstall` restores them."""
        from repro.api import runner as runner_module
        from repro.api.registry import iter_experiments
        from repro.api.result import Result
        from repro.api.store import ResultStore
        from repro.fabric import cas
        from repro.mc import sweep
        from repro.mc.link_abstraction import LinkAbstraction
        from repro.mc.viterbi import BatchViterbiDecoder
        from repro.netsim.batched import BatchedFleetSimulator
        from repro.netsim.events import EventScheduler
        from repro.netsim.fleet import FleetSimulator
        from repro.netsim.medium import SharedMedium

        # api.runner, fabric.cas, api.store, api.result
        self.wrap(runner_module.Runner, "run_batch", "runner.run_batch")
        self.wrap(cas, "driver_source_hash", "cas.source_hash", lambda a, k, r: self.count("cas.source_hash_calls"))
        self.wrap(ResultStore, "append", "store.append")
        self.wrap(
            ResultStore, "merge", "store.merge", lambda a, k, r: self.count("store.merge_docs", r.ingested)
        )
        self.wrap_generator(ResultStore, "iter_documents", "store.scan")
        self.wrap(runner_module, "document_content_key", "store.content_key")
        self.wrap(Result, "to_dict", "result.to_dict")
        self.wrap(Result, "from_dict", "result.from_dict")
        # Experiment is a frozen dataclass; its driver callable is swapped in
        # place so the Runner's ``experiment.run(...)`` lands in a span.
        # functools.wraps keeps ``__module__``, which the source hash reads.
        for experiment in iter_experiments():
            self._patches.append((experiment, "run", experiment.run))
            object.__setattr__(experiment, "run", self._timed(experiment.run, "driver"))

        # heap engine
        self.wrap(FleetSimulator, "__init__", "heap.build")
        self.wrap(FleetSimulator, "run", "heap.run")
        self.wrap(
            EventScheduler, "run", "heap.dispatch", lambda a, k, r: self.count("heap.events", r)
        )
        self.count_calls(SharedMedium, "begin", "medium.transmissions")

        # epoch engine: the public per-run attributes are read after run()
        def epoch_counts(args, kwargs, result):
            simulator = args[0]
            self.count("epoch.epochs", simulator.epochs_processed)
            self.count("epoch.resolved", simulator.transmissions_resolved)

        self.wrap(BatchedFleetSimulator, "__init__", "epoch.build")
        self.wrap(BatchedFleetSimulator, "run", "epoch.run", epoch_counts)

        # link abstraction: instances are collected so their public
        # tables_built / lookups tallies can be summed; table() becomes a
        # span only when the call actually built a table.
        original_init = LinkAbstraction.__dict__["__init__"]
        original_table = LinkAbstraction.__dict__["table"]

        @functools.wraps(original_init)
        def la_init(la, *args, **kwargs):
            original_init(la, *args, **kwargs)
            self._link_abstractions.append(la)

        @functools.wraps(original_table)
        def la_table(la, *args, **kwargs):
            built = la.tables_built
            start = time.perf_counter()
            table = original_table(la, *args, **kwargs)
            if la.tables_built != built:
                self.add("la.table_build", start, time.perf_counter())
            return table

        self._replace(LinkAbstraction, "__init__", la_init)
        self._replace(LinkAbstraction, "table", la_table)

        # mc.sweep / mc.kernels / mc.viterbi
        self.wrap(sweep.CodedOfdmPipeline, "run_batch", "sweep.run_batch")
        for kernel in KERNELS:
            self.wrap(sweep, kernel, f"kernels.{kernel}")

        def decision(args, kwargs):
            return "viterbi.soft" if kwargs.get("soft") else "viterbi.hard"

        def decoded(args, kwargs, result):
            self.count(f"{decision(args, kwargs)}.codewords", int(result.shape[0]))

        self.wrap(BatchViterbiDecoder, "decode_batch", decision, decoded)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, type) or inspect.ismodule(owner):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)

    def link_abstraction_tallies(self) -> tuple[int, int]:
        """``(tables_built, lookups)`` summed over every LinkAbstraction seen."""
        built = sum(la.tables_built for la in self._link_abstractions)
        lookups = sum(la.lookups for la in self._link_abstractions)
        return built, lookups


def build_tree(spans: list[list[Any]]) -> list[dict[str, Any]]:
    """Nest flat spans by interval containment; returns nodes in start order.

    Each node gets ``parent`` (an index or ``None``), ``self`` (duration
    minus its children's durations) and the ``spec`` of the nearest
    enclosing span that carries one.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    nodes: list[dict[str, Any]] = []
    stack: list[int] = []
    for source in order:
        name, start, end, spec = spans[source]
        while stack and nodes[stack[-1]]["end"] <= start:
            stack.pop()
        parent = stack[-1] if stack else None
        if spec is None and parent is not None:
            spec = nodes[parent]["spec"]
        node = {"name": name, "start": start, "end": end, "parent": parent, "spec": spec,
                "self": end - start}
        nodes.append(node)
        if parent is not None:
            nodes[parent]["self"] -= end - start
        stack.append(len(nodes) - 1)
    return nodes


def has_ancestor(nodes: list[dict[str, Any]], index: int, name: str) -> bool:
    """Whether node *index* sits (transitively) inside a span called *name*."""
    parent = nodes[index]["parent"]
    while parent is not None:
        if nodes[parent]["name"] == name:
            return True
        parent = nodes[parent]["parent"]
    return False


def summarize(nodes: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-name inclusive and self totals, in seconds."""
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for node in nodes:
        inclusive[node["name"]] += node["end"] - node["start"]
        self_time[node["name"]] += node["self"]
    return {"inclusive": dict(inclusive), "self": dict(self_time)}


def layer_self_ms(summary: dict[str, Any]) -> dict[str, float]:
    """Self time per layer in ms; the root's self time is ``unattributed``."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in summary["self"].items():
        layers[LAYER_OF.get(name, name)] += seconds * 1e3
    return dict(layers)


def write_trace(path: Path, rounds: list[list[dict[str, Any]]]) -> None:
    """Write every traced round's span tree as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "rounds": [
            [
                {"name": n["name"], "start": n["start"], "end": n["end"], "parent": n["parent"], "spec": n["spec"]}
                for n in nodes
            ]
            for nodes in rounds
        ]
    }
    path.write_text(json.dumps(document, separators=(",", ":")))
