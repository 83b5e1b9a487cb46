"""Remote shard fan-in: URI fetching and ``ResultStore.merge`` ingestion.

The fan-in contract: ``file://`` and ``http(s)://`` shard URIs merge
exactly like local store directories — torn lines are counted and
skipped, duplicates deduplicate by result key — so a CI artifact served
over HTTP is as good a merge source as a mounted volume.  The HTTP tests
run a real stdlib server on the loopback interface.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import ResultStore, Runner
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.fabric.remote import fetch_shard, is_uri, parse_shard_lines


def _two_specs():
    return [
        ExperimentSpec(experiment="fig13", params={"step_feet": 4.0}),
        ExperimentSpec(experiment="fig13", params={"step_feet": 6.0}),
    ]


class TestUriDetection:
    def test_schemes_are_uris_paths_are_not(self):
        assert is_uri("file:///tmp/store")
        assert is_uri("https://ci.example/shard.jsonl")
        assert not is_uri("/tmp/store")
        assert not is_uri("relative/store")
        assert not is_uri("C:\\store")  # a drive letter is not a scheme


class TestParseShardLines:
    def test_torn_and_blank_lines_are_tolerated(self):
        text = '{"a": 1}\n\n{"b": 2}\n{"torn": \n[1, 2, 3]\n'
        fetched = parse_shard_lines(text)
        assert fetched.documents == ({"a": 1}, {"b": 2})  # the list line is ignored
        assert fetched.lines == ('{"a": 1}', '{"b": 2}')  # stripped, parallel to documents
        assert fetched.torn_lines_skipped == 1

    def test_bare_non_finite_tokens_raise(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ValueError, match=f"{token} is not strict JSON"):
                parse_shard_lines('{"a": 1}\n{"b": %s}\n' % token)


class TestFetchFile:
    def test_fetches_a_single_shard_file(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        shard.write_text('{"a": 1}\n{"b": 2}\n')
        fetched = fetch_shard(shard.resolve().as_uri())
        assert fetched.documents == ({"a": 1}, {"b": 2})

    def test_fetches_a_store_directory_in_sorted_shard_order(self, tmp_path):
        (tmp_path / "shard-2.jsonl").write_text('{"b": 2}\n')
        (tmp_path / "shard-1.jsonl").write_text('{"a": 1}\ntorn\n')
        (tmp_path / "notes.txt").write_text("not a shard")
        fetched = fetch_shard(tmp_path.resolve().as_uri())
        assert fetched.documents == ({"a": 1}, {"b": 2})
        assert fetched.torn_lines_skipped == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read shard"):
            fetch_shard((tmp_path / "absent.jsonl").resolve().as_uri())

    def test_unsupported_scheme_raises(self):
        with pytest.raises(ConfigurationError, match="unsupported shard URI scheme"):
            fetch_shard("ftp://host/shard.jsonl")


@pytest.fixture
def http_server(tmp_path):
    """Serve ``tmp_path`` over real loopback HTTP; yields the base URL."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 — http.server's required spelling
            target = tmp_path / self.path.lstrip("/")
            if not target.is_file():
                self.send_error(404)
                return
            body = target.read_bytes()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass  # keep pytest output clean

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join()


class TestFetchHttp:
    def test_fetches_over_http(self, tmp_path, http_server):
        (tmp_path / "shard.jsonl").write_text('{"a": 1}\ntorn\n')
        fetched = fetch_shard(f"{http_server}/shard.jsonl")
        assert fetched.documents == ({"a": 1},)
        assert fetched.torn_lines_skipped == 1

    def test_http_error_raises(self, http_server):
        with pytest.raises(ConfigurationError, match="cannot fetch shard"):
            fetch_shard(f"{http_server}/absent.jsonl")


class TestMergeFromUris:
    def test_file_uri_merges_like_a_local_store(self, tmp_path):
        source = ResultStore(tmp_path / "source")
        Runner(telemetry=False).run_batch(_two_specs(), store=source)
        destination = ResultStore(tmp_path / "destination")
        stats = destination.merge(source.root.resolve().as_uri())
        assert stats.ingested == 2
        again = destination.merge(str(source.root))  # plain path, same content
        assert (again.ingested, again.deduped) == (0, 2)
        assert len(destination) == 2

    def test_http_uri_merges_with_dedup_and_torn_tolerance(self, tmp_path, http_server):
        source = ResultStore(tmp_path / "source")
        Runner(telemetry=False).run_batch(_two_specs(), store=source)
        [shard] = source.shard_paths()
        served = tmp_path / "served.jsonl"
        served.write_text(shard.read_text() + shard.read_text() + "{torn\n")
        destination = ResultStore(tmp_path / "destination")
        stats = destination.merge(f"{http_server}/served.jsonl")
        assert stats.ingested == 2
        assert stats.deduped == 2  # the doubled lines deduplicate by result key
        assert stats.torn_lines_skipped == 1


def _source_lines(source: ResultStore) -> list[str]:
    return [line for path in source.shard_paths() for line in path.read_text().splitlines()]


@pytest.fixture
def two_shard_source(tmp_path):
    """A store of three envelopes split over two shard files."""
    source = ResultStore(tmp_path / "source", shard="shard-a.jsonl")
    specs = _two_specs() + [ExperimentSpec(experiment="fig13", params={"step_feet": 8.0})]
    Runner(telemetry=False).run_batch(specs[:2], store=source)
    Runner(telemetry=False).run_batch(specs[2:], store=ResultStore(source.root, shard="shard-b.jsonl"))
    return source


class TestMergeCopiesBytes:
    """A URI merge writes each ingested source line unchanged."""

    def test_file_uri_directory(self, tmp_path, two_shard_source):
        destination = ResultStore(tmp_path / "destination")
        assert destination.merge(two_shard_source.root.resolve().as_uri()).ingested == 3
        assert destination.shard_path.read_text().splitlines() == _source_lines(two_shard_source)

    def test_file_uri_single_shard(self, tmp_path, two_shard_source):
        destination = ResultStore(tmp_path / "destination")
        assert destination.merge(two_shard_source.shard_path.resolve().as_uri()).ingested == 2
        assert destination.shard_path.read_text() == two_shard_source.shard_path.read_text()

    def test_http_uri_with_dedup_and_torn_tail(self, tmp_path, http_server, two_shard_source):
        lines = _source_lines(two_shard_source)
        (tmp_path / "served.jsonl").write_text("\n".join(lines + lines) + "\n" + lines[0][:30])
        destination = ResultStore(tmp_path / "destination")
        stats = destination.merge(f"{http_server}/served.jsonl")
        assert (stats.ingested, stats.deduped, stats.torn_lines_skipped) == (3, 3, 1)
        assert destination.shard_path.read_text().splitlines() == lines

    @pytest.mark.parametrize("transport", ["file", "http"])
    def test_bare_nan_line_raises_and_is_never_written(self, tmp_path, http_server, two_shard_source, transport):
        [good, *_] = _source_lines(two_shard_source)
        document = json.loads(good)
        document["runtime_s"] = float("nan")
        served = tmp_path / "served.jsonl"
        served.write_text(good + "\n" + json.dumps(document) + "\n")
        uri = served.resolve().as_uri() if transport == "file" else f"{http_server}/served.jsonl"
        destination = ResultStore(tmp_path / "destination")
        with pytest.raises(ValueError, match="NaN is not strict JSON"):
            destination.merge(uri)
        assert not destination.shard_path.exists()  # the fetch fails before any line is written
