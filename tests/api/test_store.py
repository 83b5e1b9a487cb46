"""Tests for the JSONL ResultStore (sharding, dedup, query, merge)."""

from __future__ import annotations

import json

import pytest

from repro.api import ResultStore, Runner, invocation_key, payload_equal, result_key
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def results():
    """A handful of cheap, distinct results to populate stores with."""
    runner = Runner()
    return [
        runner.run("table_power"),
        runner.run("table_packet_sizes"),
        runner.run("table_packet_sizes", params={"advertising_interval_s": 0.04}),
        runner.run("fig17", params={"messages_per_point": 10, "step_inches": 8.0}, seed=3),
    ]


class TestKeys:
    def test_key_is_stable_and_param_order_independent(self, results):
        result = results[3]
        assert result_key(result) == result_key(result)
        shuffled = dict(reversed(list(result.params.items())))
        assert invocation_key(result.experiment, result.engine, result.seed, shuffled) == result_key(result)

    def test_key_distinguishes_invocations(self, results):
        keys = {result_key(result) for result in results}
        assert len(keys) == len(results)

    def test_key_ignores_payload_and_runtime(self, results):
        from dataclasses import replace

        slower = replace(results[0], runtime_s=999.0)
        assert result_key(slower) == result_key(results[0])


class TestAppendAndIterate:
    def test_roundtrip(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        restored = list(store.iter_results())
        assert len(restored) == len(results)
        for original, decoded in zip(results, restored, strict=True):
            assert decoded.experiment == original.experiment
            assert payload_equal(decoded.payload, original.payload)

    def test_multiple_shards_are_all_read(self, tmp_path, results):
        ResultStore(tmp_path, shard="a.jsonl").append(results[0])
        ResultStore(tmp_path, shard="b.jsonl").append(results[1])
        store = ResultStore(tmp_path)
        assert len(store) == 2
        assert len(store.shard_paths()) == 2

    def test_duplicates_collapse_on_read(self, tmp_path, results):
        store = ResultStore(tmp_path)
        store.append(results[0])
        store.append(results[0])
        assert len(list(store.iter_documents())) == 2
        assert len(list(store.iter_results())) == 1
        assert len(store) == 1

    def test_truncated_trailing_line_is_skipped(self, tmp_path, results):
        store = ResultStore(tmp_path, shard="killed.jsonl")
        store.append(results[0])
        with open(store.shard_path, "a") as handle:
            handle.write(results[1].to_json()[:40])  # a writer died mid-line
        assert len(list(ResultStore(tmp_path).iter_results())) == 1

    def test_shard_name_must_be_bare(self, tmp_path):
        with pytest.raises(ConfigurationError, match="separators"):
            ResultStore(tmp_path, shard="sub/dir.jsonl")

    def test_file_as_store_root_rejected(self, tmp_path):
        path = tmp_path / "not_a_dir"
        path.write_text("occupied")
        with pytest.raises(ConfigurationError, match="is a file"):
            ResultStore(path)

    def test_keyed_documents_match_result_keys(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        keyed = {key for key, _ in store.iter_keyed_documents()}
        assert keyed == {result_key(result) for result in results}

    def test_iter_skips_non_object_lines(self, tmp_path, results):
        store = ResultStore(tmp_path, shard="odd.jsonl")
        store.append(results[0])
        with open(store.shard_path, "a") as handle:
            handle.write("[1, 2]\n\n")
        assert len(list(ResultStore(tmp_path).iter_results())) == 1


class TestQuery:
    def test_query_by_experiment(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        assert len(store.query("table_packet_sizes")) == 2
        assert store.query("fig17")[0].seed == 3

    def test_query_by_param_value(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        matches = store.query("table_packet_sizes", advertising_interval_s=0.04)
        assert len(matches) == 1
        assert matches[0].params["advertising_interval_s"] == 0.04

    def test_query_by_seed_and_engine(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        assert len(store.query(seed=3)) == 1
        assert len(store.query(engine="scalar")) == len(results)

    def test_query_unknown_param_matches_nothing(self, tmp_path, results):
        # Documented default: a filter key an envelope does not record is a
        # silent non-match, not an error (stores mix signatures).
        store = ResultStore(tmp_path)
        store.append(results[0])
        assert store.query(bogus_param=1) == []

    def test_strict_query_raises_on_unknown_filter_key(self, tmp_path, results):
        store = ResultStore(tmp_path)
        store.append(results[2])  # table_packet_sizes(advertising_interval_s=0.04)
        with pytest.raises(ConfigurationError, match=r"bogus_param.*known parameters"):
            store.query("table_packet_sizes", strict=True, bogus_param=1)

    def test_strict_query_tolerates_default_runs(self, tmp_path, results):
        # results[1] ran table_packet_sizes with driver defaults, so the
        # envelope records no parameters; the key is still in the schema,
        # so strict mode treats it as a quiet non-match, not a typo.
        store = ResultStore(tmp_path)
        store.append(results[1])
        assert store.query("table_packet_sizes", strict=True, advertising_interval_s=0.04) == []

    def test_strict_query_with_known_keys_matches_normally(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        strict = store.query("table_packet_sizes", strict=True, advertising_interval_s=0.04)
        relaxed = store.query("table_packet_sizes", advertising_interval_s=0.04)
        assert len(strict) == len(relaxed) == 1

    def test_strict_query_only_checks_candidate_envelopes(self, tmp_path, results):
        # fig17 records messages_per_point; table_* results do not, but the
        # experiment filter excludes them before the key check applies.
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        assert len(store.query("fig17", strict=True, messages_per_point=10)) == 1

    def test_strict_query_on_empty_store_raises_nothing(self, tmp_path):
        assert ResultStore(tmp_path).query("fig17", strict=True, bogus_param=1) == []


class TestMerge:
    def test_merge_copies_only_missing(self, tmp_path, results):
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        left.append(results[0])
        left.append(results[1])
        right.append(results[1])
        right.append(results[2])
        stats = left.merge(right)
        assert stats.ingested == 1
        assert stats.deduped == 1
        assert stats.torn_lines_skipped == 0
        assert len(left) == 3
        # Merging again is a no-op.
        assert left.merge(right).ingested == 0
        assert len(left) == 3

    def test_merge_accepts_a_path(self, tmp_path, results):
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        right.append(results[0])
        assert left.merge(tmp_path / "right").ingested == 1

    def test_merge_counts_torn_lines(self, tmp_path, results):
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        right.append(results[0])
        with open(right.shard_path, "a", encoding="utf-8") as handle:
            handle.write('{"experiment": "trunc')  # killed-writer tail
        stats = left.merge(right)
        assert stats.ingested == 1
        assert stats.torn_lines_skipped == 1


def _lines(*stores: ResultStore) -> list[str]:
    """Every stored line of *stores*' shards, in shard then file order."""
    return [line for store in stores for path in store.shard_paths() for line in path.read_text().splitlines()]


def _poisoned_line(result) -> str:
    """A well-formed envelope line holding a bare ``NaN`` literal (not strict JSON)."""
    document = result.to_dict()
    document["runtime_s"] = float("nan")
    return json.dumps(document, separators=(",", ":"))


class TestMergeCopiesBytes:
    """Merge is file concatenation minus duplicates: source bytes, never re-encoded."""

    def test_store_source_lines_are_copied_verbatim(self, tmp_path, results):
        source = ResultStore(tmp_path / "source", shard="a.jsonl")
        for result in results[:2]:
            source.append(result)
        ResultStore(tmp_path / "source", shard="b.jsonl").append(results[2])
        destination = ResultStore(tmp_path / "destination")
        assert destination.merge(source).ingested == 3
        assert _lines(destination) == _lines(source)

    def test_path_source_lines_are_copied_verbatim(self, tmp_path, results):
        source = ResultStore(tmp_path / "source")
        for result in results:
            source.append(result)
        destination = ResultStore(tmp_path / "destination")
        assert destination.merge(tmp_path / "source").ingested == len(results)
        assert _lines(destination) == _lines(source)

    def test_non_compact_line_is_not_re_encoded(self, tmp_path, results):
        source = ResultStore(tmp_path / "source", shard="hand.jsonl")
        spaced = json.dumps(results[0].to_dict(), allow_nan=False)  # default ", " / ": " separators
        source.shard_path.write_text(spaced + "\n")
        destination = ResultStore(tmp_path / "destination")
        assert destination.merge(source).ingested == 1
        assert destination.shard_path.read_text() == spaced + "\n"

    def test_dedup_and_torn_counts_with_copied_lines(self, tmp_path, results):
        destination = ResultStore(tmp_path / "destination")
        destination.append(results[0])
        source = ResultStore(tmp_path / "source")
        for result in (results[0], results[1], results[1], results[2]):
            source.append(result)
        with open(source.shard_path, "a", encoding="utf-8") as handle:
            handle.write(results[3].to_json()[:40])  # killed-writer tail
        before = _lines(destination)
        stats = destination.merge(source)
        assert (stats.ingested, stats.deduped, stats.torn_lines_skipped) == (2, 2, 1)
        copied = _lines(source)
        assert _lines(destination) == before + [copied[1], copied[3]]

    def test_append_document_runs_once_per_ingested_envelope(self, tmp_path, results):
        source = ResultStore(tmp_path / "source")
        for result in (results[0], results[0], results[1]):
            source.append(result)
        destination = ResultStore(tmp_path / "destination")
        seen = []
        original = destination.append_document

        def spy(document, *args, **kwargs):
            seen.append(document["experiment"])
            return original(document, *args, **kwargs)

        destination.append_document = spy
        assert destination.merge(source).ingested == 2
        assert seen == [results[0].experiment, results[1].experiment]

    def test_bare_nan_line_raises_and_is_never_written(self, tmp_path, results):
        source = ResultStore(tmp_path / "source")
        source.append(results[0])
        with open(source.shard_path, "a", encoding="utf-8") as handle:
            handle.write(_poisoned_line(results[1]) + "\n")
        assert len(source) == 2  # plain reads still accept the token
        destination = ResultStore(tmp_path / "destination")
        with pytest.raises(ValueError, match="NaN is not strict JSON"):
            destination.merge(source)
        assert "NaN" not in destination.shard_path.read_text()
        assert len(destination) == 1
