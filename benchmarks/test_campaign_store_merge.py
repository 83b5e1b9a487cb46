"""Campaign layer: shard fan-in of the paper's heaviest envelopes.

The single-sideband spectra of fig06 and fig09 are a few hundred KB of
floats per envelope — most of a campaign store's bytes.  Fan-in
(``ResultStore.merge``) copies each new source line byte for byte, so its
cost is reading and keying the lines, not re-encoding every float.  The
benchmark merges a two-shard store of those envelopes, through the
``file://`` URI a campaign manifest records, into a fresh store each
round.
"""

from __future__ import annotations

import itertools

from repro.api import ExperimentSpec, ResultStore, Runner, get_experiment

#: Envelopes per experiment; the two shards take alternate specs.
PER_EXPERIMENT = 6


def _heavy_specs() -> list[ExperimentSpec]:
    fig06 = get_experiment("fig06").fast_params
    fig09 = get_experiment("fig09").fast_params
    shifted = [
        ExperimentSpec(experiment="fig06", params={**fig06, "shift_hz": 20e6 + 0.5e6 * index})
        for index in range(PER_EXPERIMENT)
    ]
    seeded = [ExperimentSpec(experiment="fig09", params=dict(fig09), seed=index) for index in range(PER_EXPERIMENT)]
    return shifted + seeded


def _lines(store: ResultStore) -> list[str]:
    return [line for path in store.shard_paths() for line in path.read_text(encoding="utf-8").splitlines()]


def test_campaign_store_merge(benchmark, tmp_path, paper_report):
    """Campaign layer: merge a two-shard fig06/fig09 store into a fresh store."""
    specs = _heavy_specs()
    source = tmp_path / "source"
    runner = Runner(telemetry=False)
    for index in range(2):
        runner.run_batch(specs[index::2], store=ResultStore(source, shard=f"shard-{index}.jsonl"))
    uri = source.resolve().as_uri()
    fresh = itertools.count()

    def setup():
        return (ResultStore(tmp_path / f"merged-{next(fresh)}"),), {}

    def merge(destination: ResultStore):
        return destination, destination.merge(uri)

    destination, stats = benchmark.pedantic(merge, setup=setup, rounds=5, iterations=1)

    assert (stats.ingested, stats.deduped, stats.torn_lines_skipped) == (len(specs), 0, 0)
    source_lines = _lines(ResultStore(source))
    assert sorted(_lines(destination)) == sorted(source_lines)  # byte-for-byte fan-in
    megabytes = sum(len(line) + 1 for line in source_lines) / 1e6
    paper_report(
        "repro.api - campaign fan-in of fig06/fig09 envelopes",
        [
            ("envelopes", "2 shards", f"{len(specs)} ({megabytes:.1f} MB)"),
            ("merged bytes", "source bytes", "identical"),
        ],
    )
