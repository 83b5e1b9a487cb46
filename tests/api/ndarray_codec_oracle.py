"""Slow per-element reference for the ndarray codec.

The envelope codec (:mod:`repro.api.serialization`) names non-finite
floats with a vectorised check and restores them only when numpy sees a
string.  These are the plain per-element forms it replaced: every value is
tested and renamed on the way out, and every string is mapped back on the
way in.  ``tests/api/test_codec_differential.py`` swaps them in for the
fast path and requires identical encodings and decodings.
"""

from __future__ import annotations

from typing import Any

import numpy as np

_NONFINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def sanitize_numbers(values: list) -> list:
    """Replace non-finite floats in a flat list with their string names."""
    return [
        v if not isinstance(v, float) or np.isfinite(v) else ("nan" if np.isnan(v) else ("inf" if v > 0 else "-inf"))
        for v in values
    ]


def restore_numbers(values: list) -> list:
    """Map every string name back to its non-finite float."""
    return [_NONFINITE[v] if isinstance(v, str) else v for v in values]


def encode_ndarray(array: np.ndarray) -> dict:
    """Reference ``_encode_ndarray``: one ``isfinite`` call per element."""
    node: dict[str, Any] = {
        "__kind__": "ndarray",
        "dtype": str(array.dtype),
        "shape": list(array.shape),
    }
    flat = array.ravel()
    if np.issubdtype(array.dtype, np.complexfloating):
        node["real"] = sanitize_numbers(flat.real.tolist())
        node["imag"] = sanitize_numbers(flat.imag.tolist())
    else:
        node["data"] = sanitize_numbers(flat.tolist())
    return node


def decode_ndarray(node: dict) -> np.ndarray:
    """Reference ``_decode_ndarray``: every value passes the restore."""
    dtype = np.dtype(node["dtype"])
    shape = tuple(node["shape"])
    if "real" in node:
        flat = np.asarray(restore_numbers(node["real"]), dtype=float) + 1j * np.asarray(
            restore_numbers(node["imag"]), dtype=float
        )
    else:
        flat = np.asarray(restore_numbers(node["data"]))
    return flat.astype(dtype).reshape(shape)
