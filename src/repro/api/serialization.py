"""JSON-safe encoding of experiment payloads.

Every experiment driver returns a frozen dataclass whose fields mix numpy
arrays, nested dataclasses, tuples and dicts keyed by floats or tuples —
none of which survive ``json.dumps`` directly.  This module defines one
reversible encoding used by the :class:`repro.api.result.Result` envelope:

* scalars stay plain JSON values (non-finite floats become tagged nodes),
* ``np.ndarray`` → ``{"__kind__": "ndarray", "dtype": ..., "shape": ...,
  "data": ...}`` with complex arrays split into real/imaginary parts,
* tuples and non-string-keyed dicts become tagged nodes so the decoded
  object compares equal to the original,
* dataclasses → ``{"__kind__": "dataclass", "type": "module.QualName",
  "fields": {...}}``, re-imported on decode (``repro.*`` modules only).

:func:`payload_equal` is the matching deep-equality predicate (numpy-aware,
NaN-tolerant) and :func:`validate_encoded` the structural validator used by
the ``python -m repro run --validate`` smoke path.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from typing import Any, NoReturn

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["canonical_json", "encode", "decode", "payload_equal", "strict_loads", "validate_encoded"]

_KIND = "__kind__"

#: Non-finite floats are not valid strict JSON; encode them as strings.
_NONFINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def _encode_float(value: float) -> Any:
    if np.isfinite(value):
        return float(value)
    if np.isnan(value):
        return {_KIND: "float", "value": "nan"}
    return {_KIND: "float", "value": "inf" if value > 0 else "-inf"}


def _sanitize_numbers(values: list) -> list:
    """Replace non-finite floats in a flat list with their string names."""
    return [
        v if not isinstance(v, float) or np.isfinite(v) else ("nan" if np.isnan(v) else ("inf" if v > 0 else "-inf"))
        for v in values
    ]


def _encode_values(flat: np.ndarray) -> list:
    """*flat* as a JSON list, non-finite floats named by :func:`_sanitize_numbers`.

    Integer, boolean and all-finite float arrays hold no value to rename,
    so one vectorised ``isfinite`` replaces the per-element pass for them.
    """
    kind = flat.dtype.kind
    if kind in "biu" or (kind == "f" and np.isfinite(flat).all()):
        return flat.tolist()
    return _sanitize_numbers(flat.tolist())


def _decode_values(values: list) -> np.ndarray:
    """Invert :func:`_encode_values` (before the dtype cast).

    Numbers alone never make numpy build a string or object array; a
    non-finite marker (a string) does, so the per-element restore runs
    only for such a list.
    """
    array = np.asarray(values)
    if array.dtype.kind in "OSU":
        array = np.asarray([_NONFINITE[v] if isinstance(v, str) else v for v in values])
    return array


def _encode_ndarray(array: np.ndarray) -> dict:
    node: dict[str, Any] = {
        _KIND: "ndarray",
        "dtype": str(array.dtype),
        "shape": list(array.shape),
    }
    flat = array.ravel()
    if np.issubdtype(array.dtype, np.complexfloating):
        node["real"] = _encode_values(flat.real)
        node["imag"] = _encode_values(flat.imag)
    else:
        node["data"] = _encode_values(flat)
    return node


def _decode_ndarray(node: dict) -> np.ndarray:
    dtype = np.dtype(node["dtype"])
    shape = tuple(node["shape"])
    if "real" in node:
        flat = _decode_values(node["real"]).astype(float) + 1j * _decode_values(node["imag"]).astype(float)
    else:
        flat = _decode_values(node["data"])
    return flat.astype(dtype).reshape(shape)


def _dataclass_path(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _resolve_dataclass(path: str) -> type:
    module_name, _, qualname = path.rpartition(".")
    if not module_name.startswith("repro"):
        raise ConfigurationError(f"refusing to decode dataclass outside the repro package: {path!r}")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(f"cannot resolve serialized dataclass {path!r}") from exc
    if not dataclasses.is_dataclass(target):
        raise ConfigurationError(f"serialized type {path!r} is not a dataclass")
    return target


def encode(obj: Any) -> Any:
    """Encode *obj* into a strict-JSON-compatible tree."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _encode_float(obj)
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return encode(obj.item())
    if isinstance(obj, bytes):
        return {_KIND: "bytes", "hex": obj.hex()}
    if isinstance(obj, np.ndarray):
        return _encode_ndarray(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            _KIND: "dataclass",
            "type": _dataclass_path(obj),
            "fields": {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, tuple):
        return {_KIND: "tuple", "items": [encode(item) for item in obj]}
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        # A literal "__kind__" key would collide with the tag sentinel on
        # decode, so such dicts take the tagged-map form too.
        if _KIND not in obj and all(isinstance(key, str) for key in obj):
            return {key: encode(value) for key, value in obj.items()}
        return {_KIND: "map", "items": [[encode(key), encode(value)] for key, value in obj.items()]}
    raise ConfigurationError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """One canonical JSON string per value: encoded, sorted keys, no whitespace.

    The campaign layer hashes this form to derive per-spec seeds and result
    identities, so it must not depend on dict insertion order or formatting.
    """
    return json.dumps(encode(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not strict JSON")


#: Shared decoder for :func:`strict_loads` (``json.loads`` with a keyword
#: argument would build a fresh decoder on every call).
_STRICT_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def strict_loads(text: str) -> Any:
    """Parse one JSON document, rejecting the ``NaN``/``Infinity`` tokens.

    ``json.loads`` accepts those bare tokens, but strict JSON (what every
    writer here emits, ``allow_nan=False``) does not.  A value this returns
    is one ``json.dumps(..., allow_nan=False)`` accepts, so text read
    through it may be copied byte for byte without re-encoding.  Malformed
    text raises :class:`json.JSONDecodeError`; a non-strict token raises a
    plain :class:`ValueError`, so torn-line handlers that catch the former
    never swallow the latter.
    """
    return _STRICT_DECODER.decode(text)


def decode(node: Any) -> Any:
    """Invert :func:`encode`."""
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, list):
        return [decode(item) for item in node]
    if isinstance(node, dict):
        kind = node.get(_KIND)
        if kind is None:
            return {key: decode(value) for key, value in node.items()}
        if kind == "float":
            return _NONFINITE[node["value"]]
        if kind == "bytes":
            return bytes.fromhex(node["hex"])
        if kind == "ndarray":
            return _decode_ndarray(node)
        if kind == "tuple":
            return tuple(decode(item) for item in node["items"])
        if kind == "map":
            return {_freeze(decode(key)): decode(value) for key, value in node["items"]}
        if kind == "dataclass":
            cls = _resolve_dataclass(node["type"])
            return cls(**{name: decode(value) for name, value in node["fields"].items()})
        raise ConfigurationError(f"unknown serialized node kind {kind!r}")
    raise ConfigurationError(f"cannot decode node of type {type(node).__name__}")


def _freeze(key: Any) -> Any:
    """Make a decoded map key hashable (lists inside keys become tuples)."""
    if isinstance(key, list):
        return tuple(_freeze(item) for item in key)
    return key


def payload_equal(left: Any, right: Any) -> bool:
    """Deep equality across dataclasses, dicts, sequences and numpy arrays.

    Floats compare exactly (the JSON round trip is value-preserving) except
    that NaNs compare equal to NaNs, so serialized results with undefined
    samples still round-trip to "the same payload".
    """
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        if not isinstance(left, np.ndarray) or not isinstance(right, np.ndarray):
            return False
        if left.dtype != right.dtype or left.shape != right.shape:
            return False
        if np.issubdtype(left.dtype, np.inexact):
            return bool(np.array_equal(left, right, equal_nan=True))
        return bool(np.array_equal(left, right))
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        if type(left) is not type(right):
            return False
        return all(
            payload_equal(getattr(left, f.name), getattr(right, f.name)) for f in dataclasses.fields(left)
        )
    if isinstance(left, dict):
        if not isinstance(right, dict) or set(left) != set(right):
            return False
        return all(payload_equal(value, right[key]) for key, value in left.items())
    if isinstance(left, (list, tuple)):
        if type(left) is not type(right) or len(left) != len(right):
            return False
        return all(payload_equal(a, b) for a, b in zip(left, right, strict=True))
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (np.isnan(left) and np.isnan(right))
    return bool(left == right)


def _fail(path: str, message: str) -> None:
    raise ConfigurationError(f"invalid serialized payload at {path}: {message}")


def validate_encoded(node: Any, *, path: str = "payload") -> None:
    """Check that *node* is a well-formed :func:`encode` tree.

    Raises :class:`~repro.exceptions.ConfigurationError` naming the offending
    path on the first structural violation; returns ``None`` when valid.
    """
    if node is None or isinstance(node, (bool, int, float, str)):
        return
    if isinstance(node, list):
        for index, item in enumerate(node):
            validate_encoded(item, path=f"{path}[{index}]")
        return
    if not isinstance(node, dict):
        _fail(path, f"unexpected type {type(node).__name__}")
    kind = node.get(_KIND)
    if kind is None:
        for key, value in node.items():
            if not isinstance(key, str):
                _fail(path, f"non-string key {key!r} outside a tagged map node")
            validate_encoded(value, path=f"{path}.{key}")
        return
    if kind == "float":
        if node.get("value") not in _NONFINITE:
            _fail(path, f"bad non-finite float marker {node.get('value')!r}")
    elif kind == "bytes":
        if not isinstance(node.get("hex"), str):
            _fail(path, "bytes node missing hex string")
    elif kind == "ndarray":
        if not isinstance(node.get("dtype"), str) or not isinstance(node.get("shape"), list):
            _fail(path, "ndarray node missing dtype/shape")
        if ("data" in node) == ("real" in node):
            _fail(path, "ndarray node must carry exactly one of data or real/imag")
    elif kind == "tuple":
        if not isinstance(node.get("items"), list):
            _fail(path, "tuple node missing items list")
        for index, item in enumerate(node["items"]):
            validate_encoded(item, path=f"{path}[{index}]")
    elif kind == "map":
        if not isinstance(node.get("items"), list):
            _fail(path, "map node missing items list")
        for index, pair in enumerate(node["items"]):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(path, f"map entry {index} is not a [key, value] pair")
            validate_encoded(pair[0], path=f"{path}<key {index}>")
            validate_encoded(pair[1], path=f"{path}[{index}]")
    elif kind == "dataclass":
        if not isinstance(node.get("type"), str) or not node["type"].startswith("repro"):
            _fail(path, f"dataclass node with unexpected type {node.get('type')!r}")
        if not isinstance(node.get("fields"), dict):
            _fail(path, "dataclass node missing fields mapping")
        for name, value in node["fields"].items():
            validate_encoded(value, path=f"{path}.{name}")
    else:
        _fail(path, f"unknown node kind {kind!r}")
