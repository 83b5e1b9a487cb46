"""The benchmark's three workloads: inputs from a seed, rounds, output checks.

Each workload is closed-loop and serial: one process, one
:class:`repro.api.Runner` configured as ``python -m repro run`` configures
it (``telemetry=True``, ``cache="content"``, ``jobs=1``), each spec
started only after the previous one finished.  The program receives
only the generated specs; the seed decides the spec seeds and the
drawn parameter values, never the amount of work.

A round runs the workload's three *legs*, each timed as one or more
passes of ``(work units, seconds)``; the first leg's per-spec completion
gaps are kept too.  Each pass is split into its operations, and its
durations are scaled to reference machine speed (see bench_speed.py).
The outputs are checked after the timed legs, and a failed check counts
as one failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.api import Runner, SweepSpec
from repro.api.registry import get_experiment, load_registry
from repro.api.result import Result, validate_result_dict
from repro.api.serialization import canonical_json, encode
from repro.api.spec import ExperimentSpec
from repro.api.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.fabric.manifest import (
    CampaignManifest,
    ShardEntry,
    combine_manifests,
    grid_hash,
    read_manifest,
    write_manifest,
)
from repro.fabric.slicing import shard_slice
from repro.netsim.batched import BatchedFleetSimulator
from repro.netsim.fleet import FleetSimulator
from repro.obs.metrics import Collector

import bench_speed
from bench_trace import ROOT, Tracer


@dataclass
class RoundResult:
    """What one round measured and checked (and, traced, recorded)."""

    wall_s: float = 0.0
    work: dict[str, float] = field(default_factory=dict)
    ops: dict[str, dict[Any, list[float]]] = field(default_factory=dict)
    raw_s: dict[str, float] = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    gaps_ms: list[float] = field(default_factory=list)
    overhead_ms: list[float] = field(default_factory=list)
    driver_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    spans: list[list[Any]] = field(default_factory=list)
    counts: dict[tuple[str, str], float] = field(default_factory=dict)
    leg_intervals: list[tuple[str, float, float]] = field(default_factory=list)
    la_tallies: tuple[int, int] = (0, 0)

    def add_pass(self, leg: str, timed: "Pass") -> None:
        """One timed pass of *leg*.

        The pass's ``parts`` are ``(kind, seconds)`` of its operations
        (its specs, or its merges); whatever of its ``seconds`` they
        leave is one operation of kind ``rest``.  Durations are stored
        scaled to reference speed.  A leg may take several passes a
        round; every round repeats the same passes.
        """
        self.work[leg] = self.work.get(leg, 0.0) + timed.work
        self.raw_s[leg] = self.raw_s.get(leg, 0.0) + timed.seconds
        ops = self.ops.setdefault(leg, {})
        for kind, part in timed.parts:
            ops.setdefault(kind, []).append(part * timed.scale)
        rest = timed.seconds - sum(part for _, part in timed.parts)
        ops.setdefault("rest", []).append(rest * timed.scale)

    def join_legs(self, leg: str, legs: tuple[str, ...]) -> None:
        """Leg *leg* is every operation of *legs* together."""
        self.work[leg] = sum(self.work[name] for name in legs)
        self.raw_s[leg] = sum(self.raw_s[name] for name in legs)
        self.ops[leg] = {(name, kind): times for name in legs for kind, times in self.ops[name].items()}

    def check(self, ok: bool, message: str) -> None:
        """Record one output check; a failed one is a failed operation."""
        if not ok:
            self.failures.append(message)


@dataclass
class Pass:
    """One timed pass: its work units and operations, filled in by the
    pass body; its seconds and speed scale, by :meth:`Workload._timed`."""

    work: float = 0.0
    parts: list[tuple[Any, float]] = field(default_factory=list)
    seconds: float = 0.0
    scale: float = 1.0


class Completions:
    """``on_result`` callback recording per-spec completion gaps.

    A spec's gap runs from the previous completion (or the start of the
    batch) to its own completion.  Under tracing every gap after the
    first also becomes a ``runner.spec`` span, which is how spans learn
    their spec id; the first gap opens before ``run_batch`` does, so it
    would straddle the ``runner.run_batch`` span instead of nesting.
    """

    def __init__(self, tracer: Tracer | None, label: str):
        self.tracer = tracer
        self.label = label
        self.gaps: list[float] = []
        self.indices: list[int] = []
        self.runtimes: list[float] = []
        self.results: list[tuple[Result, bool]] = []
        self.last = time.perf_counter()

    def __call__(self, index: int, result: Result, was_cached: bool) -> None:
        now = time.perf_counter()
        if self.tracer is not None and self.results:
            self.tracer.add("runner.spec", self.last, now, spec=f"{self.label}/{index}")
        self.gaps.append(now - self.last)
        self.indices.append(index)
        self.runtimes.append(0.0 if was_cached else result.runtime_s)
        self.results.append((result, was_cached))
        self.last = now

    def parts(self, kind: Callable[[int], Any] = lambda index: index) -> list[tuple[Any, float]]:
        """``(kind, gap)`` of each spec, for :meth:`RoundResult.add_pass`.

        *kind* maps a spec's index to its operation kind; the first gap
        also holds ``run_batch``'s work before any spec, so it is a kind
        of its own.
        """
        return [("first" if position == 0 else kind(index), gap)
                for position, (index, gap) in enumerate(zip(self.indices, self.gaps, strict=True))]

    def record_gaps(self, result: RoundResult, scale: float) -> None:
        """Add this batch's gaps (raw, and scaled by *scale*), and gap
        minus driver call, to *result*."""
        for gap, runtime in zip(self.gaps, self.runtimes, strict=True):
            result.op_ms.append(gap * scale * 1e3)
            result.gaps_ms.append(gap * 1e3)
            result.overhead_ms.append((gap - runtime) * 1e3)

    def record_runs(self, result: RoundResult) -> None:
        """Count this batch's specs and driver time into *result*."""
        result.driver_s += sum(self.runtimes)
        result.attempted += len(self.results)


class Ticks:
    """Per-document timestamps of one :class:`ResultStore` instance.

    Shadows one method on the instance (the class is untouched) while
    the ``with`` block runs: ``append_document`` ticks as it is called,
    the ``iter_documents`` generator as it yields.  The gap before each
    tick is one operation, of the kind of the document it ends at.
    """

    def __init__(self, store: ResultStore, method: str):
        self.store = store
        self.method = method
        self.times: list[float] = []
        self.kinds: list[str] = []

    def __enter__(self) -> "Ticks":
        original = getattr(self.store, self.method)
        if self.method == "iter_documents":
            def wrapper(*args, **kwargs):
                for document in original(*args, **kwargs):
                    self.tick(document)
                    yield document
        else:
            def wrapper(document, *args, **kwargs):
                self.tick(document)
                return original(document, *args, **kwargs)
        setattr(self.store, self.method, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        delattr(self.store, self.method)

    def tick(self, document: dict[str, Any]) -> None:
        self.times.append(time.perf_counter())
        self.kinds.append(document["experiment"])

    def parts(self, start: float, first: Any = "first") -> list[tuple[Any, float]]:
        """``(kind, gap)`` of each tick since *start*; the first gap also
        holds the work before any document, so it is of kind *first*."""
        gaps = np.diff([start] + self.times).tolist()
        return list(zip([first] + self.kinds[1:], gaps, strict=True))


def store_bytes(root: Path) -> int:
    """Bytes of every result shard under *root*."""
    return sum(path.stat().st_size for path in root.glob("*.jsonl"))


def distinct(rng: np.random.Generator, low: float, high: float, step: float, size: int) -> list[float]:
    """*size* distinct grid values in ``[low, high)`` drawn by *rng*."""
    grid = np.arange(low, high, step)
    return sorted(round(float(v), 6) for v in rng.choice(grid, size=size, replace=False))


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _leg(tracer: Tracer | None, name: str):
    return tracer.in_leg(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    """Inputs built from a seed, then repeated rounds of three legs.

    ``LEGS`` names the legs behind the ``leg1_per_s``..``leg3_per_s``
    slots, and ``LABELS`` gives each slot, and ``op_p50_ms``, its
    workload-specific name and unit for the human-readable report.
    """

    name = ""
    LEGS: tuple[str, str, str] = ("", "", "")
    LABELS: tuple[tuple[str, str], ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.runner = Runner()
        self.specs: list[ExperimentSpec] = []
        self.rounds = 0
        self.reference: list[Result] = []

    def run_round(self, tracer: Tracer | None) -> RoundResult:
        """One round: timed legs (under the root span when traced), then checks."""
        result = RoundResult()
        root = self.workdir / f"round-{self.rounds}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        start = time.perf_counter()
        try:
            if tracer is None:
                state = self._round(result, root, None)
            else:
                with tracer.span(ROOT):
                    state = self._round(result, root, tracer)
                # The checks read the stores through traced calls; only what
                # ran inside the root span belongs to the round's trace.
                result.spans, result.counts = list(tracer.spans), dict(tracer.counts)
                result.leg_intervals = list(tracer.legs)
                result.la_tallies = tracer.link_abstraction_tallies()
            result.wall_s = time.perf_counter() - start
            self._check(result, root, state)
        finally:
            shutil.rmtree(root, ignore_errors=True)
            self.rounds += 1
        return result

    def install_audit(self) -> Callable[[], None]:
        """Install the workload's output audit; returns its remover."""
        return lambda: None

    def check_same_seed(self, result: RoundResult, executed: list[Result]) -> None:
        """Every round re-runs the same seeded specs: payloads must match round 0."""
        if not self.reference:
            self.reference = executed
            return
        changed = sum(1 for a, b in zip(self.reference, executed, strict=True) if not a.same_payload(b))
        result.check(changed == 0, f"{changed} payload(s) differ from the same-seed first round")

    def _batch(
        self, specs: list[ExperimentSpec], store: ResultStore, tracer: Tracer | None, label: str
    ) -> Completions:
        """``run_batch`` into *store* under a campaign collector, as the CLI does."""
        completions = Completions(tracer, label)
        collector = Collector()
        with collector.activate():
            self.runner.run_batch(specs, store=store, on_result=completions)
        if collector.counters:
            store.append_campaign_telemetry(collector.to_dict())
        return completions

    @contextlib.contextmanager
    def _timed(self, result: RoundResult, leg: str, tracer: Tracer | None) -> Iterator[Pass]:
        """Time the ``with`` body as one pass of *leg*, and add it to *result*.

        Before the clock starts, garbage is collected, so every pass
        starts with empty young generations and the collections it
        triggers fall at the same points each time.  A speed probe runs
        just before the clock starts and just after it stops.
        """
        timed = Pass()
        with _span(tracer, "bench.settle"):
            gc.collect()
            before = bench_speed.probe()
        start = time.perf_counter()
        yield timed
        timed.seconds = time.perf_counter() - start
        with _span(tracer, "bench.settle"):
            after = bench_speed.probe()
        timed.scale = bench_speed.scale(before, after)
        result.probes += [before, after]
        result.add_pass(leg, timed)

    def _timed_batches(
        self, legs: list[tuple[str, list[ExperimentSpec], float]], store: ResultStore,
        result: RoundResult, tracer: Tracer | None,
    ) -> list[tuple[Result, bool]]:
        """One ``run_batch`` per ``(leg, specs, work units)``, each timed as its leg."""
        executed = []
        for index, (leg, specs, work) in enumerate(legs):
            with _leg(tracer, leg), self._timed(result, leg, tracer) as timed:
                completions = self._batch(specs, store, tracer, leg)
                timed.work, timed.parts = work, completions.parts()
            if index == 0:
                completions.record_gaps(result, timed.scale)
            completions.record_runs(result)
            executed.extend(completions.results)
        return executed

    def _round(self, result: RoundResult, root: Path, tracer: Tracer | None) -> Any:
        """Run the timed legs; returns what :meth:`_check` needs."""
        raise NotImplementedError

    def _check(self, result: RoundResult, root: Path, state: Any) -> None:
        """Check the round's outputs (untimed)."""
        raise NotImplementedError


# --------------------------------------------------------------------- campaign
class Campaign(Workload):
    """Store-backed grid of the figure and table drivers at ``fast_params``.

    Seedable drivers get seed replicates; deterministic drivers get one
    small parameter axis, drawn from the seed, so every spec is distinct.
    Legs: the cold pass as two shards run serially into two stores (one
    sample each), the manifest-gated fan-in merge of both into a fresh
    store (``FANIN_PASSES`` samples), the warm resume of the whole grid
    over the merged store (``WARM_PASSES`` samples).
    """

    name = "campaign"
    LEGS = ("cold", "fanin", "warm")
    LABELS = (
        ("campaign.cold_specs_per_s", "specs/s"),
        ("campaign.fanin_docs_per_s", "docs/s"),
        ("campaign.warm_specs_per_s", "specs/s"),
        ("campaign.spec_p50_ms", "ms"),
    )
    SHARDS = 2
    # Fan-in and warm passes are short; repeating them gives each round
    # several samples of those legs (a re-run campaign resumes the same way).
    FANIN_PASSES = 2
    WARM_PASSES = 3
    # experiment -> seed replicates
    REPLICATES = {"fig09": 20, "fig11": 60, "fig13": 60, "fig14": 50, "fig17": 10}
    # experiment -> (parameter, low, high, step, points, as a 1-tuple)
    AXES = {
        "fig06": ("shift_hz", 18e6, 26e6, 0.05e6, 12, False),
        "fig10": ("sensitivity_dbm", -100.0, -88.0, 0.01, 30, False),
        "fig12": ("baseline_throughput_mbps", 10.0, 30.0, 0.01, 70, False),
        "fig15": ("sensitivity_dbm", -92.0, -80.0, 0.01, 50, False),
        "fig16": ("sensitivity_dbm", -98.0, -86.0, 0.01, 50, False),
        "table_packet_sizes": ("advertising_interval_s", 0.01, 0.1, 0.0001, 60, False),
        "table_power": ("shifts_hz", 10e6, 50e6, 0.01e6, 70, True),
    }

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        sweeps = [
            SweepSpec(experiment=name, params=dict(get_experiment(name).fast_params), seed=seed, replicates=count)
            for name, count in self.REPLICATES.items()
        ]
        for name, (axis, low, high, step, points, as_tuple) in self.AXES.items():
            values = distinct(rng, low, high, step, points)
            grid = {axis: [(v,) if as_tuple else v for v in values]}
            sweeps.append(SweepSpec(experiment=name, grid=grid, params=dict(get_experiment(name).fast_params)))
        self.specs = [spec for sweep in sweeps for spec in sweep.expand()]
        # Shard s holds specs s, s + SHARDS, ...: shard-order position -> spec index.
        self.shard_order = [i for s in range(self.SHARDS) for i in range(len(self.specs))[s :: self.SHARDS]]

    def _round(self, result: RoundResult, root: Path, tracer: Tracer | None) -> Any:
        specs = self.specs
        batch_hash = grid_hash(specs)
        manifests = []
        cold: list[tuple[Result, bool]] = []
        with _leg(tracer, "cold"):
            for index in range(self.SHARDS):
                with self._timed(result, "cold", tracer) as timed:
                    shard = shard_slice(specs, index, self.SHARDS)
                    store = ResultStore(root / f"shard-{index}")
                    completions = self._batch(shard, store, tracer, f"cold{index}")
                    entry = ShardEntry(
                        index=index, status="complete", uri=store.root.resolve().as_uri(), result_count=len(shard)
                    )
                    path = root / f"shard-{index}.manifest.json"
                    with _span(tracer, "manifest.write"):
                        write_manifest(path, CampaignManifest(batch_hash, len(specs), self.SHARDS, (entry,)))
                    timed.work = len(shard)
                    timed.parts = completions.parts(lambda index: shard[index].experiment)
                manifests.append(path)
                completions.record_gaps(result, timed.scale)
                completions.record_runs(result)
                cold.extend(completions.results)

        merged = []
        with _leg(tracer, "fanin"):
            for copy in range(self.FANIN_PASSES):
                with self._timed(result, "fanin", tracer) as timed:
                    store = ResultStore(root / f"merged-{copy}")
                    with _span(tracer, "manifest.combine"):
                        combined = combine_manifests([read_manifest(path) for path in manifests])
                    ingested = 0
                    for entry in combined.shards:
                        begin = time.perf_counter()
                        with Ticks(store, "append_document") as ticks:
                            ingested += store.merge(entry.uri).ingested
                        timed.parts += ticks.parts(begin, first=("fetch", entry.index))
                    timed.work = ingested
                merged.append((store, ingested))

        warm = []
        with _leg(tracer, "warm"):
            for _ in range(self.WARM_PASSES):
                with self._timed(result, "warm", tracer) as timed:
                    start = time.perf_counter()
                    with Ticks(merged[0][0], "iter_documents") as ticks:
                        completions = self._batch(specs, merged[0][0], tracer, "warm")
                    timed.work, timed.parts = len(specs), ticks.parts(start)
                result.attempted += len(completions.results)
                warm.append(completions.results)
        return cold, warm, merged

    def _check(self, result: RoundResult, root: Path, state: Any) -> None:
        cold, warm, merged = state
        count = len(self.specs)
        shards = [ResultStore(root / f"shard-{index}") for index in range(self.SHARDS)]
        result.extra["store.bytes_written"] = sum(store_bytes(shard.root) for shard in shards)
        hits = sum(1 for results in warm for _, was_cached in results if was_cached)
        result.extra["store.resume_hit_ratio"] = hits / (count * len(warm))
        result.check(hits == count * len(warm), f"warm passes executed {count * len(warm) - hits} spec(s), expected 0")

        stored = [document for shard in shards for document in shard.iter_documents()]
        for document in stored:
            try:
                validate_result_dict(document)
            except ConfigurationError as exc:
                result.check(False, f"invalid envelope: {exc}")
        for store, ingested in merged:
            documents = sum(1 for _ in store.iter_documents())
            result.check(
                documents == count and len(store) == count and ingested == count,
                f"merged store holds {documents} documents ({ingested} ingested) for {count} specs",
            )

        cold_by_spec = dict(zip(self.shard_order, (res for res, _ in cold), strict=True))
        stored_by_spec = dict(zip(self.shard_order, stored, strict=True))
        for results in warm:
            for index, (warm_result, _) in enumerate(results):
                result.check(warm_result.same_payload(cold_by_spec[index]), f"warm payload of spec {index} differs")
        # Re-encoding every payload costs seconds, so the byte-level
        # comparison runs on the first round's first warm pass only.
        if self.rounds == 0:
            for index, (warm_result, _) in enumerate(warm[0]):
                result.check(
                    canonical_json(encode(warm_result.payload)) == canonical_json(stored_by_spec[index]["payload"]),
                    f"warm payload of spec {index} is not canonical_json-identical to its cold envelope",
                )
        self.check_same_seed(result, [cold_by_spec[index] for index in range(count)])


# ------------------------------------------------------------------------ fleet
class Fleet(Workload):
    """``mac_scaling``/``mac_density`` specs in three engine legs.

    Legs: heap-engine fleets shaped like ``examples/grids/fleet_grid.json``
    plus one 1000-device ``fast_path`` fleet; one 10⁴-device epoch-engine
    fleet (per-device vector work dominates); a small-density
    ``mac_density`` sweep (per-epoch fixed cost dominates).  Work is
    simulated device-seconds.
    """

    name = "fleet"
    LEGS = ("heap", "large", "density")
    LABELS = (
        ("fleet.heap_device_s_per_s", "device*s/s"),
        ("fleet.epoch_device_s_per_s", "device*s/s"),
        ("fleet.density_device_s_per_s", "device*s/s"),
        ("fleet.heap_spec_p50_ms", "ms"),
    )
    MACS = ["aloha", "slotted_aloha", "csma", "tdma"]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.heap = SweepSpec(
            experiment="mac_scaling",
            grid={
                "profile": ["contact_lens", "neural_implant", "card_to_card"],
                "macs": [[mac] for mac in self.MACS],
                "fleet_sizes": [[5], [15]],
            },
            params={"duration_s": 0.4, "period_s": 0.05},
            seed=seed,
        ).expand() + SweepSpec(
            experiment="mac_scaling",
            params={"fleet_sizes": [1000], "macs": ["slotted_aloha"], "duration_s": 1.0, "period_s": 0.25},
            engine="fast_path",
            seed=seed,
        ).expand()
        self.large = SweepSpec(
            experiment="mac_scaling",
            params={"fleet_sizes": [10000], "macs": ["aloha"], "duration_s": 1.0, "period_s": 0.25},
            engine="batched",
            seed=seed,
        ).expand()
        self.density = SweepSpec(
            experiment="mac_density",
            params={"densities": [5, 10, 25, 50, 100], "macs": self.MACS, "period_s": 0.005, "duration_s": 0.2},
            engine="batched",
            seed=seed,
        ).expand()
        self.specs = self.heap + self.large + self.density
        self.audits: list[tuple[str, int, int]] = []

    @staticmethod
    def device_seconds(specs: list[ExperimentSpec]) -> float:
        """Simulated device-seconds: devices x MACs x duration, summed."""
        total = 0.0
        for spec in specs:
            devices = spec.params.get("fleet_sizes") or spec.params["densities"]
            total += sum(devices) * len(spec.params["macs"]) * spec.params["duration_s"]
        return total

    def _round(self, result: RoundResult, root: Path, tracer: Tracer | None) -> Any:
        store = ResultStore(root / "store")
        self.audits = []
        legs = [(leg, specs, self.device_seconds(specs))
                for leg, specs in zip(self.LEGS, (self.heap, self.large, self.density), strict=True)]
        return store, self._timed_batches(legs, store, result, tracer)

    def _check(self, result: RoundResult, root: Path, state: Any) -> None:
        store, executed = state
        result.extra["store.bytes_written"] = store_bytes(store.root)
        result.check(not any(cached for _, cached in executed), "a fresh store served a cached result")
        self.check_same_seed(result, [res for res, _ in executed])
        result.check(len(self.audits) > 0, "no fleet run was audited")
        for engine, generated, accounted in self.audits:
            result.check(
                generated == accounted,
                f"{engine} engine lost packets: generated {generated} != accounted {accounted}",
            )

    def install_audit(self) -> Callable[[], None]:
        """Wrap both engines' ``run`` with the packet-conservation audit.

        generated = delivered + dropped + queue_dropped + pending, where
        pending is what the MAC queues still hold at the horizon (the
        public ``MacProtocol.queue_length`` and
        ``BatchedFleetSimulator.pending_packets``).  Returns the remover.
        """
        def heap_pending(sim: FleetSimulator) -> int:
            return sum(node.mac.queue_length for node in sim.nodes)

        def epoch_pending(sim: BatchedFleetSimulator) -> int:
            return sim.pending_packets()

        originals = []
        for cls, engine, pending in ((FleetSimulator, "heap", heap_pending),
                                     (BatchedFleetSimulator, "epoch", epoch_pending)):
            original = cls.__dict__["run"]

            def run(sim, _original=original, _engine=engine, _pending=pending):
                metrics = _original(sim)
                stats = metrics.devices.values()
                generated = sum(s.generated for s in stats)
                accounted = sum(s.delivered + s.dropped + s.queue_dropped for s in stats) + _pending(sim)
                self.audits.append((_engine, generated, accounted))
                return metrics

            originals.append((cls, original))
            cls.run = run

        def remove() -> None:
            for cls, original in originals:
                cls.run = original

        return remove


# -------------------------------------------------------------------------- phy
class Phy(Workload):
    """``coded_ofdm`` hard+soft sweeps at a low-order and a 64-QAM rate.

    Legs: QPSK (12 Mbps) replicates, one 64-QAM (48 Mbps) sweep, and both
    together; work is decoded codewords, hard and soft counted apart.
    """

    name = "phy"
    LEGS = ("qpsk", "qam64", "all")
    LABELS = (
        ("phy.qpsk_codewords_per_s", "codewords/s"),
        ("phy.qam64_codewords_per_s", "codewords/s"),
        ("phy.codewords_per_s", "codewords/s"),
        ("phy.qpsk_spec_p50_ms", "ms"),
    )
    # Crossings are read at a 10 % codeword error rate: with 150-200
    # trials a point the 1 % point rests on one or two errors.
    TARGET = 0.1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        sweep = {"snr_step_db": 2.0, "num_symbols": 1, "target_error_rate": self.TARGET}
        self.qpsk = SweepSpec(
            experiment="coded_ofdm",
            params={"rate_mbps": 12.0, "snr_start_db": 0.0, "snr_stop_db": 8.0, "trials": 150, **sweep},
            seed=seed,
            replicates=3,
        ).expand()
        self.qam64 = SweepSpec(
            experiment="coded_ofdm",
            params={"rate_mbps": 48.0, "snr_start_db": 14.0, "snr_stop_db": 22.0, "trials": 200, **sweep},
            seed=seed,
        ).expand()
        self.specs = self.qpsk + self.qam64

    @staticmethod
    def codewords(specs: list[ExperimentSpec]) -> int:
        """Codewords decoded: SNR points x trials, once hard and once soft."""
        total = 0
        for spec in specs:
            p = spec.params
            points = np.arange(p["snr_start_db"], p["snr_stop_db"] + p["snr_step_db"] / 2.0, p["snr_step_db"])
            total += 2 * points.size * p["trials"]
        return total

    def _round(self, result: RoundResult, root: Path, tracer: Tracer | None) -> Any:
        store = ResultStore(root / "store")
        legs = [(leg, specs, self.codewords(specs)) for leg, specs in (("qpsk", self.qpsk), ("qam64", self.qam64))]
        executed = self._timed_batches(legs, store, result, tracer)
        result.join_legs("all", ("qpsk", "qam64"))
        return store, executed

    def _check(self, result: RoundResult, root: Path, state: Any) -> None:
        store, executed = state
        result.extra["store.bytes_written"] = store_bytes(store.root)
        self.check_same_seed(result, [res for res, _ in executed])
        for index, (res, cached) in enumerate(executed):
            payload = res.payload
            result.check(not cached, f"spec {index} came from a fresh store's cache")
            rates = np.concatenate([payload.hard_error_rate, payload.soft_error_rate])
            result.check(bool(np.all((rates >= 0.0) & (rates <= 1.0))), f"spec {index}: error rate outside [0, 1]")
            hard, soft = payload.hard_crossing_snr_db, payload.soft_crossing_snr_db
            result.check(
                bool(np.isfinite(hard) and np.isfinite(soft) and soft < hard),
                f"spec {index} ({payload.rate_mbps:g} Mbps): soft crossing {soft} dB not below hard {hard} dB",
            )


WORKLOADS: dict[str, type[Workload]] = {"campaign": Campaign, "fleet": Fleet, "phy": Phy}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Set-up: load the registry and expand the workload's specs."""
    load_registry()
    return WORKLOADS[name](seed, workdir)
