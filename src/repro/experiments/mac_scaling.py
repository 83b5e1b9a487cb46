"""MAC scaling — fleet size vs delivery for multi-device interscatter.

The paper evaluates one tag per carrier; this driver asks the scaling
question its applications imply: as N contact lenses (or implants, or
cards) share one single-tone carrier, how do the candidate medium-access
policies compare?  For each fleet size and MAC policy it runs one seeded
fleet scenario and records delivery ratio, aggregate goodput,
attempt-level PER, medium utilization and median latency.

One sweep serves two registry names:

* ``mac_scaling`` — the heap engine of :mod:`repro.netsim.fleet` (analytic
  PHY per packet, or the memoised PER tables with ``engine="fast_path"``)
  or the epoch engine of :mod:`repro.netsim.batched`, up to a few hundred
  devices under saturating load.  Pure ALOHA collapses first as offered
  load grows, slotting roughly doubles the usable capacity, carrier
  sensing removes attempt-level collisions, and downlink-driven TDMA
  polling stays collision-free at every size.
* ``mac_density`` — the epoch engine only, so the density axis extends
  into the thousands-of-devices regime (a stadium of payment cards, a ward
  of implants).  It also forwards the contention settings of
  :class:`repro.netsim.batched.EpochMacParams` to every MAC: imperfect CCA
  detection, the retry-ladder abort counter and a per-device duty-cycle
  limit.  Random access collapses past its knee while TDMA polling
  degrades gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api.registry import register, resolve_engine
from repro.netsim.batched import BatchedFleetSimulator
from repro.netsim.fleet import FleetScenario, FleetSimulator
from repro.plots.figure import Figure, Series

__all__ = [
    "MacScalingResult",
    "run",
    "run_density",
    "summarize",
    "DEFAULT_FLEET_SIZES",
    "DEFAULT_DENSITIES",
    "DEFAULT_MACS",
]

#: Fleet sizes swept by default (1 tag reproduces the paper's setting).
DEFAULT_FLEET_SIZES = (1, 5, 10, 25, 50, 100, 200)

#: Device densities the ``mac_density`` sweep covers by default.
DEFAULT_DENSITIES = (25, 50, 100, 200, 400, 800, 1600)

#: MAC policies compared by default.
DEFAULT_MACS = ("aloha", "slotted_aloha", "csma", "tdma")

_SERIES = ("delivery_ratio", "throughput_bps", "attempt_per", "utilization", "latency_p50_s")


@dataclass(frozen=True)
class MacScalingResult:
    """Series of one fleet-size × MAC sweep.

    Attributes
    ----------
    fleet_sizes:
        The swept fleet sizes (x-axis).
    macs:
        Policy names, in sweep order.
    profile / period_s / duration_s / seed:
        Scenario parameters shared by every run.
    delivery_ratio / throughput_bps / attempt_per / utilization /
    latency_p50_s:
        Policy name → array over fleet sizes.
    duty_cycle / cca_reliability / max_attempts:
        Contention settings of every MAC.  The defaults are the values
        the heap MACs use, which is what ``mac_scaling`` runs report.
    """

    fleet_sizes: np.ndarray
    macs: tuple[str, ...]
    profile: str
    period_s: float
    duration_s: float
    seed: int
    delivery_ratio: dict[str, np.ndarray]
    throughput_bps: dict[str, np.ndarray]
    attempt_per: dict[str, np.ndarray]
    utilization: dict[str, np.ndarray]
    latency_p50_s: dict[str, np.ndarray]
    duty_cycle: float = 1.0
    cca_reliability: float = 1.0
    max_attempts: int = 8


def _simulate_exact(scenario: FleetScenario):
    """Analytic PHY error model evaluated per packet."""
    return FleetSimulator(scenario).run().aggregate()


def _simulate_fast_path(scenario: FleetScenario):
    """Packet fates from the memoised LinkAbstraction PER tables."""
    return FleetSimulator(replace(scenario, phy_fast_path=True)).run().aggregate()


def _simulate_batched(scenario: FleetScenario):
    """Epoch-batched vectorised engine (per-device state in numpy arrays)."""
    return BatchedFleetSimulator(scenario).run().aggregate()


_ENGINES = {
    "scalar": _simulate_exact,
    "fast_path": _simulate_fast_path,
    "batched": _simulate_batched,
}

#: ``mac_density`` rides the epoch engine only.
_DENSITY_ENGINES = {"batched": _ENGINES["batched"]}


def _sweep(
    experiment: str, engine: str, engines: dict, fleet_sizes, macs, contention: dict | None, **scenario
) -> MacScalingResult:
    """Run one scenario per (MAC, fleet size) and collect the five series.

    ``contention`` (``duty_cycle``, ``cca_reliability``, ``max_attempts``)
    is forwarded to every MAC through ``mac_params``; ``None`` forwards
    nothing, so the MACs keep their defaults.  ``scenario`` holds the
    ``FleetScenario`` fields shared by every run.
    """
    simulate = resolve_engine(experiment, engine, engines)
    series = {metric: {mac: [] for mac in macs} for metric in _SERIES}
    for mac in macs:
        # Imperfect carrier sense is a CSMA-only knob.
        mac_params = {k: v for k, v in (contention or {}).items() if k != "cca_reliability" or mac == "csma"}
        for size in fleet_sizes:
            aggregate = simulate(FleetScenario(num_devices=size, mac=mac, mac_params=mac_params, **scenario))
            for metric in _SERIES:
                series[metric][mac].append(getattr(aggregate, metric))
    return MacScalingResult(
        fleet_sizes=np.array(fleet_sizes, dtype=int),
        macs=tuple(macs),
        **scenario,
        **(contention or {}),
        **{metric: {mac: np.array(values) for mac, values in by_mac.items()} for metric, by_mac in series.items()},
    )


def run(
    *,
    fleet_sizes: tuple[int, ...] = DEFAULT_FLEET_SIZES,
    macs: tuple[str, ...] = DEFAULT_MACS,
    profile: str = "contact_lens",
    period_s: float = 0.02,
    duration_s: float = 2.0,
    seed: int = 2016,
    engine: str = "scalar",
) -> MacScalingResult:
    """Sweep fleet size × MAC policy and collect the aggregate metrics.

    The default 20 ms packet interval pushes a 200-device fleet well past
    channel saturation so the policies separate; pass a larger ``period_s``
    for a light-load sweep.

    ``engine="scalar"`` (default) evaluates the analytic PHY error model
    per packet; ``"fast_path"`` resolves packet fates through the memoised
    PER tables of :class:`repro.mc.link_abstraction.LinkAbstraction`
    (statistically equivalent up to the table's SINR binning, essential for
    1000+ device fleets); ``"batched"`` runs the epoch engine.
    """
    scenario = {"profile": profile, "period_s": period_s, "duration_s": duration_s, "seed": seed}
    return _sweep("mac_scaling", engine, _ENGINES, fleet_sizes, macs, None, **scenario)


def run_density(
    *,
    densities: tuple[int, ...] = DEFAULT_DENSITIES,
    macs: tuple[str, ...] = DEFAULT_MACS,
    profile: str = "contact_lens",
    period_s: float = 0.25,
    duration_s: float = 10.0,
    seed: int = 2016,
    duty_cycle: float = 1.0,
    cca_reliability: float = 1.0,
    max_attempts: int = 8,
    engine: str = "batched",
) -> MacScalingResult:
    """Sweep device density × MAC policy on the epoch-batched engine.

    The default contact-lens interval keeps the channel unsaturated until
    several hundred devices, so the full default sweep shows each policy's
    knee.  ``duty_cycle``, ``cca_reliability`` and ``max_attempts`` are
    forwarded to every MAC via ``mac_params`` — see
    :class:`repro.netsim.batched.EpochMacParams` for their semantics.
    """
    contention = {"duty_cycle": duty_cycle, "cca_reliability": cca_reliability, "max_attempts": max_attempts}
    scenario = {"profile": profile, "period_s": period_s, "duration_s": duration_s, "seed": seed}
    return _sweep("mac_density", engine, _DENSITY_ENGINES, densities, macs, contention, **scenario)


def _summary(result: MacScalingResult, expected: str) -> list[str]:
    largest = result.fleet_sizes[-1]
    lines = [
        f"{mac:13s}: delivery {result.delivery_ratio[mac][-1]:.2f} at {largest} devices, "
        f"goodput {result.throughput_bps[mac][-1] / 1e3:.1f} kbps, "
        f"attempt PER {result.attempt_per[mac][-1]:.2f}"
        for mac in result.macs
    ]
    lines.append(f"expected: {expected}")
    return lines


def summarize(result: MacScalingResult) -> list[str]:
    """Headline report lines for the CLI and the reproduction script."""
    return _summary(result, "ALOHA collapses first, slotting doubles capacity, TDMA polling stays collision-free")


def _summarize_density(result: MacScalingResult) -> list[str]:
    return _summary(result, "random-access policies collapse past their knee while TDMA polling degrades gracefully")


def _headline(result: MacScalingResult, name: str, series: dict, scale: float = 1.0) -> dict[str, float]:
    """Delivery ratio and one more *series* per MAC, at the largest fleet."""
    out: dict[str, float] = {}
    for mac in result.macs:
        out[f"delivery_{mac}"] = float(result.delivery_ratio[mac][-1])
        out[f"{name}_{mac}"] = float(series[mac][-1] / scale)
    return out


def metrics(result: MacScalingResult) -> dict[str, float]:
    """Scalar headline metrics (at the largest fleet) for aggregation."""
    return _headline(result, "goodput_kbps", result.throughput_bps, 1e3)


def _metrics_density(result: MacScalingResult) -> dict[str, float]:
    return _headline(result, "utilization", result.utilization)


def _delivery_figure(result: MacScalingResult, title: str, xlabel: str, caption: str) -> Figure:
    return Figure(
        title=title,
        xlabel=xlabel,
        ylabel="Delivery ratio",
        series=tuple(Series(label=mac, x=result.fleet_sizes, y=result.delivery_ratio[mac]) for mac in result.macs),
        caption=caption,
    )


def plot(result: MacScalingResult) -> Figure:
    """Declarative figure: delivery ratio per MAC across fleet sizes."""
    return _delivery_figure(
        result,
        "MAC scaling — delivery ratio vs fleet size",
        "Fleet size (devices)",
        "ALOHA collapses first, slotting doubles capacity, TDMA polling stays collision-free.",
    )


def _plot_density(result: MacScalingResult) -> Figure:
    return _delivery_figure(
        result,
        "MAC density — delivery ratio vs device density (epoch engine)",
        "Device density (devices per carrier)",
        "Epoch-batched sweep into the thousands-of-devices regime: "
        "random access collapses past its knee, TDMA polling degrades gracefully.",
    )


# mac_density registers first: report sections follow registration order.
register(
    name="mac_density",
    title="MAC density — delivery vs density on the epoch-batched engine (beyond the paper)",
    run=run_density,
    engines=_DENSITY_ENGINES,
    fast_params={"densities": (5, 10, 25, 50, 100), "period_s": 0.005, "duration_s": 1.0},
    summarize=_summarize_density,
    metrics=_metrics_density,
    plot=_plot_density,
)

register(
    name="mac_scaling",
    title="MAC scaling — fleet size × MAC policy sweep (beyond the paper)",
    run=run,
    engines=_ENGINES,
    fast_params={"fleet_sizes": (1, 5, 10), "duration_s": 0.5},
    summarize=summarize,
    metrics=metrics,
    plot=plot,
)
