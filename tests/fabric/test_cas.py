"""Content-addressed resume: the package code digest and the one resume rule.

The fabric's caching contract: key = invocation + a once-per-process
digest of the ``repro`` package's normalized source.  A whitespace or
comment-only refactor keeps every cache entry warm, any behavioural edit
anywhere in the package invalidates, and ``resume=False`` (the CLI's
``--no-resume``) re-executes regardless.  The runner tests drive the real
:class:`~repro.api.Runner` against a real store with the package sources
monkeypatched, so the end-to-end resume path is what's under test — not
just the hash function.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import ResultStore, Runner
from repro.api.spec import ExperimentSpec
from repro.api.store import document_content_key, invocation_key
from repro.exceptions import ConfigurationError
from repro.fabric import cas

_SOURCE = "def run(x):\n    return x + 1\n"
_SOURCE_REFLOWED = "# a comment\n\ndef run(x):\n\n    # another comment\n    return x + 1\n"
_SOURCE_EDITED = "def run(x):\n    return x + 2\n"


def _one_module(source, path="mod.py"):
    """A package listing holding a single module."""
    return lambda: iter([(path, source)])


def _no_source():
    raise OSError("no source")


@pytest.fixture
def package_sources(monkeypatch):
    """Swap the package's source listing; the memoised digest follows."""

    def swap(sources):
        monkeypatch.setattr(cas, "package_sources", sources)
        cas.package_digest.cache_clear()

    yield swap
    cas.package_digest.cache_clear()


class TestNormalizedSourceDigest:
    def test_comment_and_whitespace_changes_do_not_shift_the_digest(self):
        assert cas.normalized_source_digest(_SOURCE) == cas.normalized_source_digest(_SOURCE_REFLOWED)

    def test_behavioural_edit_shifts_the_digest(self):
        assert cas.normalized_source_digest(_SOURCE) != cas.normalized_source_digest(_SOURCE_EDITED)

    def test_unparseable_source_raises(self):
        with pytest.raises(ConfigurationError, match="cannot normalize"):
            cas.normalized_source_digest("def run(:\n")


class TestPackageDigest:
    def test_covers_every_package_module_by_relative_path(self):
        paths = [path for path, _ in cas.package_sources()]
        assert paths == sorted(paths)
        assert "fabric/cas.py" in paths and "backscatter/power.py" in paths
        assert not any(path.startswith("/") for path in paths)

    def test_comment_refactor_keeps_and_behavioural_edit_shifts_the_digest(self, package_sources):
        package_sources(_one_module(_SOURCE))
        digest = cas.package_digest()
        package_sources(_one_module(_SOURCE_REFLOWED))
        assert cas.package_digest() == digest
        package_sources(_one_module(_SOURCE_EDITED))
        assert cas.package_digest() != digest

    def test_relative_paths_participate(self, package_sources):
        package_sources(_one_module(_SOURCE, path="a.py"))
        digest = cas.package_digest()
        package_sources(_one_module(_SOURCE, path="b.py"))
        assert cas.package_digest() != digest

    def test_each_file_is_read_once_per_process(self, package_sources, monkeypatch, tmp_path):
        calls = []
        real = cas.package_sources

        def counting():
            calls.append(1)
            return real()

        package_sources(counting)
        runner = Runner(telemetry=False)
        for _ in range(3):
            runner.run("table_power")
        runner.run_batch(_spec(), store=ResultStore(tmp_path / "store"))
        # Once warm, a run parses no source at all.
        monkeypatch.setattr(ast, "parse", lambda *a, **k: pytest.fail("per-run ast.parse"))
        runner.run("table_power")
        assert len(calls) == 1


class TestDriverSourceHash:
    def test_registered_driver_hashes_to_the_package_digest(self):
        digest = cas.driver_source_hash(ExperimentSpec(experiment="fig13").resolve())
        assert isinstance(digest, str) and len(digest) == 64
        assert digest == cas.package_digest()

    def test_driver_outside_the_package_adds_its_own_digest(self, monkeypatch):
        experiment = ExperimentSpec(experiment="fig13").resolve()
        monkeypatch.setattr(type(experiment), "module", property(lambda self: "outside_driver"))
        monkeypatch.setattr(cas, "module_source", lambda name: _SOURCE)
        digest = cas.driver_source_hash(experiment)
        assert digest not in (None, cas.package_digest())
        monkeypatch.setattr(cas, "module_source", lambda name: _SOURCE_REFLOWED)
        assert cas.driver_source_hash(experiment) == digest
        monkeypatch.setattr(cas, "module_source", lambda name: _SOURCE_EDITED)
        assert cas.driver_source_hash(experiment) != digest

        monkeypatch.setattr(cas, "module_source", lambda name: _no_source())
        assert cas.driver_source_hash(experiment) is None

    def test_unavailable_source_is_uncacheable_not_fatal(self, package_sources):
        experiment = ExperimentSpec(experiment="fig13").resolve()
        for sources in (_no_source, lambda: iter([])):
            package_sources(sources)
            assert cas.driver_source_hash(experiment) is None


class TestCacheKey:
    def test_differs_from_the_result_identity_and_tracks_source(self):
        identity = invocation_key("fig13", "batch", None, {"step_feet": 2.0})
        source_a = cas.normalized_source_digest(_SOURCE)
        source_b = cas.normalized_source_digest(_SOURCE_EDITED)
        key_a = invocation_key("fig13", "batch", None, {"step_feet": 2.0}, source_hash=source_a)
        key_b = invocation_key("fig13", "batch", None, {"step_feet": 2.0}, source_hash=source_b)
        assert key_a != identity
        assert key_a != key_b

    def test_backend_participates_only_when_present(self):
        base = invocation_key("mc", "batch", 7, {}, source_hash="s")
        with_backend = invocation_key("mc", "batch", 7, {}, backend="numpy", source_hash="s")
        assert base != with_backend

    def test_envelope_without_source_hash_has_no_cache_key(self):
        result = Runner(telemetry=False).run("fig13", params={"step_feet": 4.0})
        document = result.to_dict()
        assert document_content_key(document) is not None
        document.pop("source_hash")
        assert document_content_key(document) is None


def _spec():
    return [ExperimentSpec(experiment="fig13", params={"step_feet": 4.0}, engine="batch")]


def _run(runner, store, **kwargs):
    """Run the one-spec batch and return the was-cached flag."""
    flags = []
    runner.run_batch(_spec(), store=store, on_result=lambda i, r, c: flags.append(c), **kwargs)
    return flags[0]


class TestResume:
    def test_comment_refactor_hits_behavioural_edit_misses(self, tmp_path, package_sources):
        store = ResultStore(tmp_path / "store")
        runner = Runner(telemetry=False)
        package_sources(_one_module(_SOURCE))
        assert _run(runner, store) is False  # cold store executes
        assert _run(runner, store) is True  # identical source hits
        package_sources(_one_module(_SOURCE_REFLOWED))
        assert _run(runner, store) is True  # comment/whitespace-only refactor still hits
        package_sources(_one_module(_SOURCE_EDITED))
        assert _run(runner, store) is False  # behavioural edit misses and re-executes

    def test_resume_false_always_re_executes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = Runner(telemetry=False)
        assert _run(runner, store) is False
        # resume=False is the CLI's --no-resume: a warm store is ignored.
        assert _run(runner, store, resume=False) is False
        assert _run(runner, store) is True

    def test_unhashable_source_fails_safe_to_re_execution(self, tmp_path, package_sources):
        store = ResultStore(tmp_path / "store")
        runner = Runner(telemetry=False)
        package_sources(_no_source)
        assert _run(runner, store) is False
        assert _run(runner, store) is False  # never a false hit

    def test_pre_fabric_envelopes_are_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = Runner(telemetry=False).run(_spec()[0])
        document = result.to_dict()
        document.pop("source_hash")  # an envelope from before the fabric existed
        store.append_document(document)
        assert _run(Runner(telemetry=False), store) is False


class TestLibraryEditInvalidates:
    def test_editing_a_library_constant_re_executes_the_driver(self, tmp_path):
        # The table_power driver reads its synthesizer power from
        # backscatter/power.py; editing that constant in a copy of the
        # package must re-execute on resume, not serve the stale 27.99 µW.
        package = tmp_path / "src" / "repro"
        shutil.copytree(Path(repro.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(package.parent)}
        store = tmp_path / "store"

        def run_table_power():
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "run", "table_power", "--store", str(store), "--quiet"],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        assert "1 executed, 0 reused" in run_table_power()
        power = package / "backscatter" / "power.py"
        source = power.read_text(encoding="utf-8")
        assert source.count('"frequency_synthesizer": 9.69,') == 1
        power.write_text(source.replace('"frequency_synthesizer": 9.69,', '"frequency_synthesizer": 19.69,'))

        assert "1 executed, 0 reused" in run_table_power()
        totals = sorted(
            round(sum(json.loads(line)["payload"]["fields"]["reference"]["fields"].values()), 2)
            for shard in store.glob("*.jsonl")
            for line in shard.read_text().splitlines()
        )
        assert totals == [27.99, 37.99]


class TestImportOrder:
    def test_fabric_imports_standalone_before_the_api_package(self):
        # The runner reaches repro.fabric.cas and the fabric's manifest and
        # slicing modules import repro.api; a fresh interpreter that touches
        # repro.fabric first must not trip over the package cycle (tests
        # import repro.api first, which hides it).
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.fabric; import repro.api"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
