"""Remote shard ingestion: ``file://`` and ``http(s)://`` fan-in sources.

A distributed campaign leaves its shards wherever the machines that ran
them put them — a mounted volume, a CI artifact served over HTTP.  The
fan-in step (:meth:`repro.api.store.ResultStore.merge`) accepts shard
*URIs* alongside local store paths; this module does the fetching with
nothing beyond the stdlib ``urllib``.

A shard resource is JSON lines, exactly as on disk: one result envelope
per line.  Parsing is torn-line tolerant — a line that does not parse as
JSON (the truncated tail of a killed writer, or a partial download) is
counted and skipped, never fatal — and non-object lines are ignored, so
merging a half-written remote shard degrades to merging what survived.
Each envelope keeps its stripped line, which the merge copies byte for
byte, so parsing is also strict: a bare ``NaN``/``Infinity`` token
raises :class:`ValueError` rather than reaching the destination store.
``file://`` URIs may also name a store *directory*, in which case every
``*.jsonl`` shard inside it is read in sorted order, mirroring
:meth:`~repro.api.store.ResultStore.shard_paths`.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api.serialization import strict_loads
from repro.exceptions import ConfigurationError

__all__ = ["ShardFetch", "fetch_shard", "is_uri", "parse_shard_lines"]

#: RFC 3986 scheme prefix — what distinguishes a URI source from a path.
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://")

#: Schemes the fabric knows how to fetch.
_SUPPORTED_SCHEMES = ("file", "http", "https")

#: Default socket timeout for HTTP shard fetches, seconds.
_HTTP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ShardFetch:
    """One fetched shard resource: its parsed envelopes and the damage count.

    Attributes
    ----------
    documents:
        Every line that parsed as a JSON object, in resource order.
    lines:
        The stripped text of each of those lines, parallel to
        ``documents`` — the bytes a merge writes.
    torn_lines_skipped:
        Lines that did not parse as JSON — truncated writes or partial
        transfers — skipped rather than failing the whole fan-in.
    """

    documents: tuple[dict[str, Any], ...]
    lines: tuple[str, ...]
    torn_lines_skipped: int


def is_uri(source: str) -> bool:
    """Whether *source* is a URI (has a scheme) rather than a filesystem path."""
    return bool(_SCHEME.match(source))


def parse_shard_lines(text: str) -> ShardFetch:
    """Parse JSONL *text* tolerantly (but strictly, see above) into a :class:`ShardFetch`."""
    documents: list[dict[str, Any]] = []
    lines: list[str] = []
    torn = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            document = strict_loads(line)
        except json.JSONDecodeError:
            torn += 1
            continue
        if isinstance(document, dict):
            documents.append(document)
            lines.append(line)
    return ShardFetch(documents=tuple(documents), lines=tuple(lines), torn_lines_skipped=torn)


def _fetch_file(uri: str) -> ShardFetch:
    path = Path(urllib.request.url2pathname(urllib.parse.urlparse(uri).path))
    if path.is_dir():
        fetches = [parse_shard_lines(shard.read_text(encoding="utf-8")) for shard in sorted(path.glob("*.jsonl"))]
        return ShardFetch(
            documents=tuple(document for fetched in fetches for document in fetched.documents),
            lines=tuple(line for fetched in fetches for line in fetched.lines),
            torn_lines_skipped=sum(fetched.torn_lines_skipped for fetched in fetches),
        )
    try:
        return parse_shard_lines(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read shard {uri!r}: {exc}") from exc


def _fetch_http(uri: str, timeout_s: float) -> ShardFetch:
    try:
        with urllib.request.urlopen(uri, timeout=timeout_s) as response:
            body = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise ConfigurationError(f"cannot fetch shard {uri!r}: {exc}") from exc
    return parse_shard_lines(body.decode("utf-8", errors="replace"))


def fetch_shard(uri: str, *, timeout_s: float = _HTTP_TIMEOUT_S) -> ShardFetch:
    """Fetch and parse one shard URI (``file://`` path/dir or ``http(s)://``)."""
    scheme = urllib.parse.urlparse(uri).scheme.lower()
    if scheme not in _SUPPORTED_SCHEMES:
        raise ConfigurationError(
            f"unsupported shard URI scheme {scheme!r} in {uri!r}; "
            f"supported: {list(_SUPPORTED_SCHEMES)}"
        )
    if scheme == "file":
        return _fetch_file(uri)
    return _fetch_http(uri, timeout_s)
