"""Scalar oracle for the epoch contract of :mod:`repro.netsim.batched`.

:class:`EpochReferenceSimulator` is the differential suites' trusted twin of
:class:`repro.netsim.batched.BatchedFleetSimulator`: the same documented
epoch contract, written with per-device Python loops and scalar RNG draws.
It builds its scenario constants, MAC parameters and capture threshold
through the engine module's own ``_EpochSetup``, ``resolve_epoch_mac`` and
``CAPTURE_THRESHOLD_DB``, so every derived float is computed by one code
path and the two simulators stay bit-identical.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.netsim.batched import CAPTURE_THRESHOLD_DB, _EpochSetup, resolve_epoch_mac
from repro.netsim.fleet import FleetScenario
from repro.netsim.mac import MAX_BACKOFF_EXPONENT
from repro.netsim.metrics import FleetMetrics
from repro.obs import metrics as obs


class EpochReferenceSimulator:
    """Scalar oracle for the epoch contract: per-device loops, scalar draws.

    Written independently of :class:`BatchedFleetSimulator` on purpose — it
    keeps per-device state in Python scalars and deques and draws from the
    RNG one value at a time, in the documented ascending-device order.  The
    differential suite asserts its per-device counters are bit-identical to
    the vectorised engine's on every MAC; any contract drift between the two
    implementations breaks that equality.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        *,
        epoch_s: float | None = None,
        record_epochs: bool = False,
    ) -> None:
        self.scenario = scenario
        self.setup = _EpochSetup(scenario, epoch_s=epoch_s)
        self.params = resolve_epoch_mac(scenario, self.setup.epoch_s)
        self.rng = np.random.default_rng(scenario.seed)
        n = scenario.num_devices
        self.queues: list[deque] = [deque() for _ in range(n)]
        self.head_attempts = [0] * n
        self.be = [self.params.min_be] * n
        self.cca_fails = [0] * n
        self.airtime_used = [0.0] * n
        self.next_arrival_s = [0.0] * n
        self.metrics = FleetMetrics()
        for i in range(n):
            self.metrics.add_device(
                i, self.setup.profile.name, float(self.setup.rssi_dbm[i])
            )
        self._attempt_buckets: dict[int, list[int]] = {}
        self._arrival_buckets: dict[int, list[int]] = {}
        self._epoch_heap: list[int] = []
        self._last_tx_epoch = -2
        self.epochs_processed = 0
        self.busy_epochs = 0
        self.transmissions_resolved = 0
        self.epoch_trace: list[int] = [] if record_epochs else None

    # --------------------------------------------------------------- buckets
    def _push(self, buckets: dict, epoch: int, device: int) -> None:
        if epoch >= self.setup.num_epochs:
            return
        entry = buckets.get(epoch)
        if entry is None:
            buckets[epoch] = [device]
            heapq.heappush(self._epoch_heap, epoch)
        else:
            entry.append(device)

    def _pop_bucket(self, buckets: dict, epoch: int) -> list[int]:
        return sorted(buckets.pop(epoch, []))

    def _next_epoch(self) -> int | None:
        while self._epoch_heap:
            epoch = heapq.heappop(self._epoch_heap)
            if epoch in self._arrival_buckets or epoch in self._attempt_buckets:
                return epoch
        return None

    # ------------------------------------------------------------ scheduling
    def _schedule_access(self, epoch: int, device: int) -> None:
        name = self.params.name
        if name in ("aloha", "slotted_aloha"):
            self._push(self._attempt_buckets, epoch + 1, device)
        elif name == "csma":
            width = int(self.rng.integers(0, 2 ** self.be[device]))
            self._push(self._attempt_buckets, epoch + 1 + width, device)
        else:
            slot = device % self.params.num_slots
            nxt = epoch + 1 + ((slot - (epoch + 1)) % self.params.num_slots)
            self._push(self._attempt_buckets, nxt, device)

    def _pop_head(self, device: int) -> bool:
        """Remove the device's head packet; True when more are queued."""
        self.queues[device].popleft()
        self.head_attempts[device] = 0
        if self.params.name == "csma":
            self.be[device] = self.params.min_be
            self.cca_fails[device] = 0
        return bool(self.queues[device])

    # ----------------------------------------------------------------- phases
    def _start(self) -> None:
        for i in range(self.scenario.num_devices):
            arrival = float(self.rng.uniform(0.0, self.setup.profile.period_s))
            self.next_arrival_s[i] = arrival
            self._push(self._arrival_buckets, int(arrival / self.setup.epoch_s), i)

    def _run_epoch(self, epoch: int) -> None:
        if self.epoch_trace is not None:
            self.epoch_trace.append(epoch)
        self.epochs_processed += 1
        p = self.params
        setup = self.setup
        t_end = (epoch + 1) * setup.epoch_s
        profile = setup.profile

        # Phase 1: arrivals in rounds of ascending device id.
        active = self._pop_bucket(self._arrival_buckets, epoch)
        fresh = [i for i in active if not self.queues[i]]
        while active:
            following = []
            for i in active:
                stats = self.metrics.devices[i]
                t_arr = self.next_arrival_s[i]
                for _ in range(profile.burst_size):
                    stats.generated += 1
                    if len(self.queues[i]) >= p.queue_limit:
                        stats.queue_dropped += 1
                    else:
                        self.queues[i].append(t_arr)
                jitter = float(self.rng.uniform(-1.0, 1.0))
                self.next_arrival_s[i] = t_arr + profile.period_s * (
                    1.0 + profile.jitter_fraction * jitter
                )
                if self.next_arrival_s[i] < t_end:
                    following.append(i)
                else:
                    self._push(
                        self._arrival_buckets,
                        int(self.next_arrival_s[i] / setup.epoch_s),
                        i,
                    )
            active = following

        # Phase 2: initial access for queues that went empty -> non-empty.
        for i in fresh:
            self._schedule_access(epoch, i)

        # Phase 3: contention.
        ready = self._pop_bucket(self._attempt_buckets, epoch)
        if p.duty_cycle < 1.0 and ready:
            allowed = []
            for i in ready:
                if self.airtime_used[i] + setup.air_time_s <= p.duty_cycle * t_end:
                    allowed.append(i)
                else:
                    self._push(self._attempt_buckets, epoch + 1, i)
            ready = allowed
        if p.name == "csma" and ready and self._last_tx_epoch == epoch - 1:
            clear, defers, aborts = [], [], []
            for i in ready:
                if float(self.rng.random()) < p.cca_reliability:
                    self.cca_fails[i] += 1
                    if self.cca_fails[i] > p.max_cca_attempts:
                        aborts.append(i)
                    else:
                        defers.append(i)
                else:
                    self.cca_fails[i] = 0
                    clear.append(i)
            for i in defers:
                self.be[i] = min(self.be[i] + 1, p.max_be)
                width = int(self.rng.integers(0, 2 ** self.be[i]))
                self._push(self._attempt_buckets, epoch + 1 + width, i)
            abort_heads = []
            for i in aborts:
                self.metrics.devices[i].dropped += 1
                if self._pop_head(i):
                    abort_heads.append(i)
            for i in abort_heads:
                self._schedule_access(epoch, i)
            ready = clear
        elif p.name == "tdma" and ready:
            polled = []
            for i in ready:
                if float(self.rng.random()) < float(setup.poll_success_prob[i]):
                    polled.append(i)
                else:
                    self._push(self._attempt_buckets, epoch + p.num_slots, i)
            ready = polled

        # Phase 4: medium resolution over the k transmitters.
        k = len(ready)
        if k == 0:
            return
        self._last_tx_epoch = epoch
        self.busy_epochs += 1
        self.transmissions_resolved += k
        total_w = float(np.sum(setup.signal_w[np.asarray(ready, dtype=np.int64)]))
        fates = []
        for i in ready:
            stats = self.metrics.devices[i]
            stats.attempted += 1
            self.head_attempts[i] += 1
            self.airtime_used[i] += setup.air_time_s
            signal = setup.signal_w[i]
            interference = max(total_w - signal, 0.0)
            sinr_db = 10.0 * np.log10(signal / (setup.noise_w + interference))
            per = setup.per_table.lookup(sinr_db)
            if k >= 2:
                if sinr_db < CAPTURE_THRESHOLD_DB:
                    per = 1.0
                stats.collided += 1
            fates.append((i, per))
        won, lost = [], []
        for i, per in fates:
            draw = float(self.rng.random())
            if setup.rssi_dbm[i] >= setup.sensitivity_dbm and draw > per:
                won.append(i)
            else:
                lost.append(i)

        # Phase 5: outcomes — delivered pops, drops, retry draws, new heads.
        new_heads = []
        for i in won:
            stats = self.metrics.devices[i]
            stats.delivered += 1
            stats.bytes_delivered += setup.psdu_bytes
            stats.latencies_s.append(t_end - self.queues[i][0])
            if self._pop_head(i):
                new_heads.append(i)
        retries = []
        for i in lost:
            if self.head_attempts[i] >= p.max_attempts:
                self.metrics.devices[i].dropped += 1
                if self._pop_head(i):
                    new_heads.append(i)
            else:
                retries.append(i)
        for i in retries:
            if p.name == "aloha":
                expo = min(self.head_attempts[i] - 1, MAX_BACKOFF_EXPONENT)
                width = int(self.rng.integers(0, p.base_backoff_epochs * 2**expo))
                self._push(self._attempt_buckets, epoch + 1 + width, i)
            elif p.name == "slotted_aloha":
                expo = min(self.head_attempts[i], MAX_BACKOFF_EXPONENT)
                ahead = int(self.rng.integers(1, 2**expo + 1))
                self._push(self._attempt_buckets, epoch + ahead, i)
            elif p.name == "csma":
                self.be[i] = min(self.be[i] + 1, p.max_be)
                width = int(self.rng.integers(0, 2 ** self.be[i]))
                self._push(self._attempt_buckets, epoch + 1 + width, i)
            else:
                self._push(self._attempt_buckets, epoch + p.num_slots, i)
        for i in sorted(new_heads):
            self._schedule_access(epoch, i)

    # -------------------------------------------------------------------- run
    def pending_packets(self) -> int:
        """Packets still queued (in flight) at the horizon."""
        return sum(len(q) for q in self.queues)

    def run(self) -> FleetMetrics:
        """Execute the scenario and return the collected metrics."""
        with obs.span(
            "netsim.batched.run",
            profile=self.setup.profile.name,
            devices=self.scenario.num_devices,
            mac=self.params.name,
            engine="reference",
            horizon_epochs=self.setup.num_epochs,
        ):
            self._start()
            while True:
                epoch = self._next_epoch()
                if epoch is None:
                    break
                self._run_epoch(epoch)
            attempted = sum(s.attempted for s in self.metrics.devices.values())
            self.metrics.finalize(
                duration_s=self.scenario.duration_s,
                busy_time_s=self.busy_epochs * self.setup.epoch_s,
                airtime_s=attempted * self.setup.air_time_s,
            )
        obs.count("netsim.batched.epochs", self.epochs_processed)
        obs.count("netsim.batched.resolved", self.transmissions_resolved)
        return self.metrics
