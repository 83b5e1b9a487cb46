"""The code digest that content-addresses cached campaign results.

A stored result may be reused only if the current code would produce it.
Result identity (:func:`repro.api.store.invocation_key` — experiment,
engine, seed, params, backend) is blind to code, so the
:class:`~repro.api.runner.Runner` records :func:`driver_source_hash` on
every envelope it writes, and resume matches the invocation key *with*
that hash: ``key = invocation + package code digest``.

The digest covers the whole ``repro`` package.  Every registered
driver's static ``repro`` import closure is the same large slice of the
package (the registry alone pulls in the whole API stack), so one
digest of the package *is* the closure: an edit to a library constant
a driver reads invalidates its cached results just as an edit to the
driver does.  Each file contributes its *normalized* source digest — an
AST dump, so formatting, comments and line numbers do not participate:
a comment-only refactor keeps every cache entry warm, while any
behavioural edit forces re-execution.

The digest is computed on first use and memoised for the life of the
process, so each file is parsed once however many runs follow, and
importing this module costs nothing.  A driver module outside the
package (tests register such drivers) also contributes its own
normalized digest.  When source is unavailable the hash is ``None`` and
the run is never cacheable, which fails safe: it re-executes.
Envelopes written before the fabric existed carry no source hash and
are misses too, never false hits.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib
import inspect
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.api.registry import Experiment

__all__ = [
    "driver_source_hash",
    "module_source",
    "normalized_source_digest",
    "package_digest",
    "package_sources",
]

#: Root directory of the ``repro`` package.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def normalized_source_digest(source: str) -> str:
    """sha256 of *source*'s AST dump — formatting and comments excluded.

    Two sources that parse to the same tree (whitespace moved, comments
    added or dropped, trailing blank lines) digest identically; any
    change that survives parsing — a different constant, operator,
    branch or name — does not.  ``ast.dump`` omits line/column
    attributes by default, so pure reflow never shifts the digest.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise ConfigurationError(f"cannot normalize driver source: {exc}") from exc
    digest = hashlib.sha256(ast.dump(tree).encode("utf-8"))
    return digest.hexdigest()


def module_source(module_name: str) -> str:
    """The raw source text of *module_name* (imported if necessary)."""
    module = importlib.import_module(module_name)
    return inspect.getsource(module)


def package_sources() -> Iterator[tuple[str, str]]:
    """``(relative path, source)`` of every ``repro/**/*.py`` file.

    Paths are POSIX-style and relative to the package root, yielded in
    sorted order, so the digest is the same in any checkout location.
    """
    paths = sorted(path.relative_to(_PACKAGE_ROOT).as_posix() for path in _PACKAGE_ROOT.rglob("*.py"))
    for relative in paths:
        yield relative, (_PACKAGE_ROOT / relative).read_text(encoding="utf-8")


@functools.cache
def package_digest() -> str | None:
    """The ``repro`` package code digest, computed once per process.

    sha256 over each file's relative path and normalized source digest,
    in sorted path order.  ``None`` when any file cannot be read or
    parsed, or when no file is found (a package imported from an
    archive) — a constant digest would turn every stale entry into a hit.
    """
    digest = hashlib.sha256()
    files = 0
    try:
        for relative, source in package_sources():
            digest.update(f"{relative}\0{normalized_source_digest(source)}\n".encode("utf-8"))
            files += 1
    except (OSError, ValueError, ConfigurationError):
        return None
    return digest.hexdigest() if files else None


def driver_source_hash(experiment: Experiment) -> str | None:
    """The code digest a run of *experiment* is cached under.

    The package digest for drivers inside ``repro``; for a driver module
    outside it, the package digest combined with that module's own
    normalized digest.  ``None`` when any of that source is unavailable
    (a driver registered from a REPL or an exec'd test module) — such
    runs are never cacheable, so they re-execute.
    """
    package = package_digest()
    if package is None or experiment.module.partition(".")[0] == "repro":
        return package
    try:
        driver = normalized_source_digest(module_source(experiment.module))
    except (OSError, TypeError, ImportError):
        return None
    return hashlib.sha256(f"{package}\0{driver}".encode("utf-8")).hexdigest()
