"""Differential lockdown: batched epoch engine vs its scalar oracle.

The vectorised :class:`repro.netsim.batched.BatchedFleetSimulator` and the
scalar :class:`tests.netsim.epoch_reference.EpochReferenceSimulator` implement one
documented epoch contract (see the module docstring of
:mod:`repro.netsim.batched`).  These tests pin the two engines to each
other **bit-for-bit** — per-device counters, byte totals and latency sums
via :meth:`repro.netsim.metrics.FleetMetrics.fingerprint` — across a
seed × MAC × density matrix, MAC-knob presets (imperfect CCA, abort
ladders, duty cycles) and the bursty card-to-card profile.  Any divergence
is a bug in one of the engines, never tolerance noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Runner
from repro.api.store import invocation_key
from repro.netsim.batched import BatchedFleetSimulator
from repro.netsim.fleet import FleetScenario
from tests.netsim.epoch_reference import EpochReferenceSimulator

SEEDS = (1, 7, 2016, 90210, 424242)

MACS = ("aloha", "slotted_aloha", "csma", "tdma")

#: (num_devices, period_s): tiny saturated fleets through light 64-device ones.
FLEETS = ((4, 0.004), (8, 0.02), (16, 0.05), (32, 0.02), (64, 0.1))


def _fingerprints(scenario: FleetScenario):
    batched = BatchedFleetSimulator(scenario).run()
    reference = EpochReferenceSimulator(scenario).run()
    return batched.fingerprint(), reference.fingerprint()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mac", MACS)
@pytest.mark.parametrize("fleet", FLEETS, ids=lambda f: f"n{f[0]}-p{f[1]}")
def test_engines_bit_identical_across_matrix(seed, mac, fleet):
    num_devices, period_s = fleet
    scenario = FleetScenario(
        profile="contact_lens",
        num_devices=num_devices,
        mac=mac,
        duration_s=0.4,
        period_s=period_s,
        seed=seed,
    )
    batched, reference = _fingerprints(scenario)
    assert batched == reference


#: Contention-realism presets: every knob of EpochMacParams is exercised.
KNOB_CASES = (
    ("aloha", {"base_backoff_epochs": 1, "max_attempts": 3}),
    ("aloha", {"duty_cycle": 0.05}),
    ("aloha", {"queue_limit": 2}),
    ("slotted_aloha", {"max_attempts": 2, "queue_limit": 3}),
    ("slotted_aloha", {"duty_cycle": 0.1}),
    ("csma", {"cca_reliability": 0.8}),
    ("csma", {"max_cca_attempts": 2, "queue_limit": 4}),
    ("csma", {"min_be": 1, "max_be": 3}),
    ("tdma", {"num_slots": 4}),
    ("tdma", {"duty_cycle": 0.2}),
)


@pytest.mark.parametrize("seed", (3, 11, 2016))
@pytest.mark.parametrize("case", KNOB_CASES, ids=lambda c: f"{c[0]}-{'-'.join(c[1])}")
def test_engines_bit_identical_with_contention_knobs(seed, case):
    mac, mac_params = case
    scenario = FleetScenario(
        profile="contact_lens",
        num_devices=12,
        mac=mac,
        duration_s=0.4,
        period_s=0.01,
        seed=seed,
        mac_params=dict(mac_params),
    )
    batched, reference = _fingerprints(scenario)
    assert batched == reference


@pytest.mark.parametrize("seed", (5, 23))
@pytest.mark.parametrize("mac", MACS)
def test_engines_bit_identical_on_bursty_profile(seed, mac):
    scenario = FleetScenario(
        profile="card_to_card",
        num_devices=10,
        mac=mac,
        duration_s=0.4,
        period_s=0.05,
        seed=seed,
    )
    batched, reference = _fingerprints(scenario)
    assert batched == reference


_FAST_DENSITY = {"densities": (5, 10, 25), "period_s": 0.005, "duration_s": 0.5}

#: mac_density contention settings: the defaults, then all three moved.
_CONTENTION = ({}, {"cca_reliability": 0.8, "max_attempts": 2, "duty_cycle": 0.2})

_SERIES = ("delivery_ratio", "throughput_bps", "attempt_per", "utilization", "latency_p50_s")


def test_mac_density_payloads_identical_across_engines():
    # The Runner's mac_density payload against the same scenarios run one
    # by one on the oracle: pins how the driver builds each scenario and
    # forwards its contention settings to the epoch MACs.
    runner = Runner()
    for contention in _CONTENTION:
        payload = runner.run("mac_density", params={**_FAST_DENSITY, **contention}).payload
        settings = {"duty_cycle": 1.0, "cca_reliability": 1.0, "max_attempts": 8, **contention}
        assert {name: getattr(payload, name) for name in settings} == settings
        for mac in payload.macs:
            mac_params = {"duty_cycle": settings["duty_cycle"], "max_attempts": settings["max_attempts"]}
            if mac == "csma":
                mac_params["cca_reliability"] = settings["cca_reliability"]
            for index, density in enumerate(_FAST_DENSITY["densities"]):
                scenario = FleetScenario(
                    profile="contact_lens",
                    num_devices=density,
                    mac=mac,
                    duration_s=_FAST_DENSITY["duration_s"],
                    period_s=_FAST_DENSITY["period_s"],
                    seed=payload.seed,
                    mac_params=mac_params,
                )
                expected = EpochReferenceSimulator(scenario).run().aggregate()
                for metric in _SERIES:
                    np.testing.assert_array_equal(
                        getattr(payload, metric)[mac][index],
                        getattr(expected, metric),
                        err_msg=f"{contention} {mac} n={density} {metric}",
                    )


def test_mac_scaling_envelopes_comparable_across_engines():
    runner = Runner()
    params = {"fleet_sizes": (2, 4), "duration_s": 0.3}
    results = [
        runner.run("mac_scaling", params=dict(params), engine=engine)
        for engine in ("scalar", "batched")
    ]
    keys = {
        invocation_key(r.experiment, "<engine>", r.seed, r.params, backend=r.backend)
        for r in results
    }
    assert len(keys) == 1
    for result in results:
        for mac in result.payload.macs:
            ratios = result.payload.delivery_ratio[mac]
            assert np.all((0.0 <= ratios) & (ratios <= 1.0))
