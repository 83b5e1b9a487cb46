"""The queryable on-disk store campaign results accumulate into.

A :class:`ResultStore` is a directory of JSON-lines shards, one
:class:`~repro.api.result.Result` envelope per line.  Every writing
process appends to its **own** shard file (named after its PID by
default), so parallel workers never contend for a lock, a killed run
leaves at most one truncated trailing line, and merging two stores is
file concatenation: :meth:`ResultStore.merge` copies each new source line
byte for byte, never re-encoding it.

Results are identified by :func:`result_key` — a content hash of the
resolved invocation (experiment, engine, seed, parameters) — which makes
reads idempotent: duplicate envelopes from a rerun collapse to one.  The
runner resumes a partial store on the same material plus the package
code digest (:func:`document_content_key`), so only results the current
code would produce are reused.  :meth:`ResultStore.query` filters the decoded
results by experiment, engine, seed or any recorded parameter value.

:meth:`ResultStore.merge` is the distributed fan-in point: alongside
local store directories it ingests ``file://`` and ``http(s)://`` shard
URIs (:mod:`repro.fabric.remote`), so N machines can execute disjoint
slices of one grid and merge at report time.  Campaign-level telemetry
(cache hit/miss counters, merge spans) rides in a ``campaign-telemetry/``
sidecar directory inside the store — outside the ``*.jsonl`` shard
namespace, so it never masquerades as a result envelope.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api.registry import get_experiment
from repro.api.result import Result
from repro.api.serialization import canonical_json, decode, payload_equal, strict_loads
from repro.exceptions import ConfigurationError
from repro.obs import metrics as obs

__all__ = [
    "MergeStats",
    "ResultStore",
    "document_content_key",
    "result_key",
    "invocation_key",
    "representative",
]

_UNSET = object()

#: Subdirectory (inside the store root) holding campaign telemetry
#: documents — deliberately not ``*.jsonl`` at the root, which is the
#: result-shard namespace.
_CAMPAIGN_TELEMETRY_DIR = "campaign-telemetry"


def invocation_key(
    experiment: str,
    engine: str,
    seed: int | None,
    params: Mapping[str, Any],
    *,
    backend: str | None = None,
    source_hash: str | None = None,
) -> str:
    """Content hash of one resolved invocation.

    ``params`` must be the *decoded* parameter dict (native tuples, arrays,
    floats) — an already-encoded tree would canonicalize differently because
    re-encoding wraps its tagged nodes.  Used both for stored envelopes
    (:func:`result_key`) and for not-yet-run specs, so a rerun can skip work
    a partial store already holds.

    ``backend`` is part of the identity when set: the same invocation run on
    another array backend is a distinct result.  ``None`` (experiments that
    take no backend, and envelopes written before backends existed) hashes
    exactly as it did historically.

    ``source_hash`` (the package code digest,
    :func:`repro.fabric.cas.driver_source_hash`) turns the result identity
    into the resume cache key: invocation + code, so a cached result is
    reused only while the code that produced it is unchanged.
    """
    material = {"experiment": experiment, "engine": engine, "seed": seed, "params": dict(params)}
    if backend is not None:
        material["backend"] = backend
    if source_hash is not None:
        material["source"] = source_hash
    digest = hashlib.sha256(canonical_json(material).encode("utf-8"))
    return digest.hexdigest()[:16]


def result_key(result: Result) -> str:
    """Content hash identifying *result*'s invocation (not its payload)."""
    return invocation_key(
        result.experiment, result.engine, result.seed, result.params, backend=result.backend
    )


def representative(results: "list[Result]") -> Result:
    """The deterministic representative of a result set: smallest invocation key.

    Both generated documents (``EXPERIMENTS.md`` and ``FIGURES.md``) and
    the ``plot`` CLI use this same pick, so they always describe/render
    the same stored run for a given store content.
    """
    return min(results, key=result_key)


@dataclass(frozen=True)
class MergeStats:
    """Outcome of one :meth:`ResultStore.merge` call.

    Attributes
    ----------
    ingested:
        Envelopes copied into the destination store.
    deduped:
        Source envelopes skipped because the destination already held
        their invocation (or an earlier source line did).
    torn_lines_skipped:
        Source lines that did not parse as JSON — the truncated tail a
        killed writer leaves behind.
    """

    ingested: int
    deduped: int
    torn_lines_skipped: int

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form (the ``merge --json`` machine-readable output)."""
        return {
            "ingested": self.ingested,
            "deduped": self.deduped,
            "torn_lines_skipped": self.torn_lines_skipped,
        }


def _document_key(document: dict[str, Any], source_hash: str | None = None) -> str:
    # Decode only the params (not the payload): `invocation_key` canonicalizes
    # decoded values, and skipping the payload keeps key scans cheap on
    # 10^4-envelope stores.
    return invocation_key(
        document["experiment"],
        document["engine"],
        document["seed"],
        decode(document["params"]),
        backend=document.get("backend"),
        source_hash=source_hash,
    )


def _keyed_lines(lines: Iterable[tuple[dict[str, Any], str]]) -> Iterator[tuple[str, dict[str, Any], str]]:
    """``(key, document, line)`` for each ``(document, line)`` of a merge source."""
    for document, line in lines:
        yield _document_key(document), document, line


def document_content_key(document: dict[str, Any]) -> str | None:
    """The envelope's resume cache key (invocation + code digest), or ``None``.

    ``None`` when the envelope predates the fabric and recorded no
    source hash — such envelopes never match on resume (a safe miss,
    never a false hit).
    """
    source_hash = document.get("source_hash")
    if source_hash is None:
        return None
    return _document_key(document, source_hash)


class ResultStore:
    """A directory of JSONL shards holding result envelopes.

    Parameters
    ----------
    root:
        Store directory; created on first use.
    shard:
        File name this process appends to.  Defaults to
        ``shard-<pid>.jsonl`` so concurrent writers never share a file.
    """

    def __init__(self, root: str | Path, *, shard: str | None = None):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(f"result store root {str(self.root)!r} is a file, not a directory")
        self.root.mkdir(parents=True, exist_ok=True)
        self._shard = shard or f"shard-{os.getpid()}.jsonl"
        if Path(self._shard).name != self._shard:
            raise ConfigurationError(f"shard name {self._shard!r} must not contain path separators")
        #: Torn (unparseable) lines skipped across this instance's reads.
        self.torn_lines_skipped = 0

    @property
    def shard_path(self) -> Path:
        """The shard file this store instance appends to."""
        return self.root / self._shard

    # -- writing -----------------------------------------------------------

    def append(self, result: Result) -> str:
        """Append one result envelope to this process's shard; returns its key."""
        self.append_document(result.to_dict())
        return result_key(result)

    def append_document(self, document: dict[str, Any], line: str | None = None) -> None:
        """Append an already-encoded envelope (one compact JSON line).

        *line*, when given, is *document*'s JSON text as read from another
        shard; it is written unchanged instead of re-encoding *document*.
        """
        if line is None:
            line = json.dumps(document, allow_nan=False, separators=(",", ":"))
        with open(self.shard_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def merge(self, other: "ResultStore | str | Path") -> MergeStats:
        """Copy envelopes from *other* that this store does not hold yet.

        *other* may be another :class:`ResultStore`, a local store
        directory, or a shard **URI** — ``file://`` (shard file or store
        directory) or ``http(s)://`` (a JSONL resource), fetched via
        :mod:`repro.fabric.remote` with torn-line tolerance.

        Duplicates (by :func:`result_key`) are skipped, so merging is
        idempotent.  An ingested envelope's source line is copied byte for
        byte (merging is file concatenation minus duplicates); the source
        is read strictly, so a line holding a bare ``NaN``/``Infinity``
        token raises :class:`ValueError` and is never written.  Returns a
        :class:`MergeStats` accounting for every source line: ingested,
        deduplicated, or torn and skipped.
        """
        with obs.span("store.merge", source=str(other)):
            entries, torn = self._source_documents(other)
            seen = self.existing_keys()
            ingested = 0
            deduped = 0
            for key, document, line in entries:
                if key in seen:
                    deduped += 1
                    continue
                seen.add(key)
                self.append_document(document, line)
                ingested += 1
            stats = MergeStats(
                ingested=ingested,
                deduped=deduped,
                torn_lines_skipped=torn(),
            )
        obs.count("store.merge.ingested", stats.ingested)
        obs.count("store.merge.deduped", stats.deduped)
        obs.count("store.merge.torn_lines_skipped", stats.torn_lines_skipped)
        return stats

    @staticmethod
    def _source_documents(
        other: "ResultStore | str | Path",
    ) -> tuple[Iterator[tuple[str, dict[str, Any], str]], Any]:
        """A merge source as ``((key, document, line) iterator, torn-count callable)``.

        The torn count is a callable because a local store only knows how
        many lines tore *after* iteration finishes, while a remote fetch
        knows up front.
        """
        if isinstance(other, str) and "://" in other:
            from repro.fabric.remote import fetch_shard

            fetched = fetch_shard(other)
            obs.count("store.merge.remote_documents", len(fetched.documents))
            lines = zip(fetched.documents, fetched.lines, strict=True)
            return _keyed_lines(lines), lambda: fetched.torn_lines_skipped
        source = other if isinstance(other, ResultStore) else ResultStore(other)
        torn_before = source.torn_lines_skipped
        return _keyed_lines(source.iter_lines(strict=True)), lambda: source.torn_lines_skipped - torn_before

    # -- campaign telemetry ------------------------------------------------

    def append_campaign_telemetry(self, document: dict[str, Any]) -> None:
        """Record one campaign-level telemetry document in the sidecar.

        Campaign telemetry (content-cache hits/misses, merge spans) is
        collected *around* a batch, not inside any single run, so it
        cannot ride a result envelope.  It lives in
        ``<root>/campaign-telemetry/<shard>.jsonl`` — outside the root
        ``*.jsonl`` shard namespace — and is validated before any bytes
        are written, like every other generated document.
        """
        obs.validate_telemetry(document)
        directory = self.root / _CAMPAIGN_TELEMETRY_DIR
        directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(document, allow_nan=False, separators=(",", ":"))
        with open(directory / self._shard, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def iter_campaign_telemetry(self) -> Iterator[dict[str, Any]]:
        """Yield campaign telemetry documents, torn-line tolerant."""
        for document, _ in self._read_lines(sorted((self.root / _CAMPAIGN_TELEMETRY_DIR).glob("*.jsonl"))):
            yield document

    # -- reading -----------------------------------------------------------

    def shard_paths(self) -> list[Path]:
        """Every shard file in the store, in deterministic (sorted) order."""
        return sorted(self.root.glob("*.jsonl"))

    def iter_documents(self) -> Iterator[dict[str, Any]]:
        """Yield raw envelope dicts from every shard, duplicates included.

        A line that does not parse as JSON (the tail of a killed writer) is
        skipped — counted in :attr:`torn_lines_skipped` — rather than
        poisoning the whole store.
        """
        for document, _ in self.iter_lines():
            yield document

    def iter_lines(self, *, strict: bool = False) -> Iterator[tuple[dict[str, Any], str]]:
        """Yield ``(envelope dict, stripped line)`` pairs, as :meth:`iter_documents` reads them.

        With ``strict=True`` a line holding a bare ``NaN``/``Infinity``
        token raises :class:`ValueError` (see
        :func:`~repro.api.serialization.strict_loads`): the merge path
        copies lines verbatim and must only ever copy strict JSON.
        """
        return self._read_lines(self.shard_paths(), strict_loads if strict else json.loads)

    def _read_lines(self, paths: list[Path], loads: Any = json.loads) -> Iterator[tuple[dict[str, Any], str]]:
        """``(JSON object, stripped line)`` for each object line of *paths*; torn lines are counted."""
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        document = loads(line)
                    except json.JSONDecodeError:
                        self.torn_lines_skipped += 1
                        obs.count("store.torn_lines_skipped")
                        continue
                    if isinstance(document, dict):
                        yield document, line

    def iter_keyed_documents(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Yield ``(invocation key, raw envelope dict)`` pairs, duplicates included.

        The key is computed from the envelope's params alone — no payload
        decode — so callers can filter cheaply and decode only what they want.
        """
        for document in self.iter_documents():
            yield _document_key(document), document

    def iter_results(self) -> Iterator[Result]:
        """Yield decoded results, one per distinct invocation (first wins)."""
        seen: set[str] = set()
        for key, document in self.iter_keyed_documents():
            if key in seen:
                continue
            seen.add(key)
            yield Result.from_dict(document)

    def existing_keys(self) -> set[str]:
        """Keys of every distinct invocation the store holds."""
        return {key for key, _ in self.iter_keyed_documents()}

    def __len__(self) -> int:
        return len(self.existing_keys())

    def __iter__(self) -> Iterator[Result]:
        return self.iter_results()

    def query(
        self,
        experiment: str | None = None,
        *,
        engine: str | None = None,
        seed: Any = _UNSET,
        backend: Any = _UNSET,
        strict: bool = False,
        **param_filters: Any,
    ) -> list[Result]:
        """Decoded results matching every given filter.

        ``experiment``/``engine`` match the envelope fields, ``seed=None``
        matches deterministic runs, ``backend=None`` matches runs without an
        array backend, and any further keyword matches a recorded parameter
        by (numpy-aware) value equality.

        A parameter filter whose key an envelope does not record is, by
        default, simply a **non-match**: the envelope is excluded, exactly
        as if the value differed.  That is the right behaviour when one
        store mixes experiments with different signatures (and envelopes
        only record *explicit* overrides, not driver defaults) — but it
        also silently returns ``[]`` for a typoed filter name.  Pass
        ``strict=True`` to instead raise
        :class:`~repro.exceptions.ConfigurationError` when a filter key is
        not a parameter of a candidate envelope's experiment (per the
        registry schema) — mirroring the unknown-key rejection of spec
        documents.  An envelope that merely ran with the parameter's
        default stays a quiet non-match even under ``strict``.  A store
        with no candidates at all raises nothing (there is no experiment
        to check the keys against), and an envelope whose experiment has
        left the registry is checked against its recorded keys instead.
        """
        matches = []
        for result in self.iter_results():
            if experiment is not None and result.experiment != experiment:
                continue
            if engine is not None and result.engine != engine:
                continue
            if seed is not _UNSET and result.seed != seed:
                continue
            if backend is not _UNSET and result.backend != backend:
                continue
            unknown = sorted(set(param_filters) - set(result.params))
            if unknown and strict:
                self._check_filter_keys(result, unknown)
            if unknown or any(
                not payload_equal(result.params[name], value) for name, value in param_filters.items()
            ):
                continue
            matches.append(result)
        return matches

    @staticmethod
    def _check_filter_keys(result: Result, unknown: list[str]) -> None:
        """Raise if *unknown* filter keys are not in the experiment's schema."""
        try:
            known = {parameter.name for parameter in get_experiment(result.experiment).parameters}
        except ConfigurationError:
            # The experiment is gone from the registry (an old store);
            # the envelope's recorded keys are all we can validate against.
            known = set(result.params)
        bad = sorted(set(unknown) - known)
        if bad:
            raise ConfigurationError(
                f"unknown filter key(s) {bad} for experiment {result.experiment!r}; "
                f"known parameters: {sorted(known)}"
            )
