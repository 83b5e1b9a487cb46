"""The ndarray codec's vectorised fast path against its per-element oracle.

:mod:`repro.api.serialization` checks an array for non-finite values
once (``np.isfinite(flat).all()``) and restores string markers only when
numpy decodes a list to a string or object array.  Stored envelopes,
``canonical_json`` and the resume keys hashed from it must not move by a
byte, so each case here encodes and decodes once through the fast path
and once through :mod:`tests.api.ndarray_codec_oracle`, and requires the
same trees, the same JSON text and the same array bytes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import serialization
from repro.api.serialization import canonical_json, decode, encode
from repro.api.store import invocation_key
from tests.api import ndarray_codec_oracle as oracle

_SPECIALS = (np.nan, np.inf, -np.inf)


def _with_specials(values: np.ndarray, seed: int, count: int) -> np.ndarray:
    """*values* with *count* non-finite floats at seeded random positions."""
    rng = np.random.default_rng(seed)
    flat = values.ravel().copy()
    positions = rng.choice(flat.size, size=count, replace=False)
    flat[positions] = rng.choice(_SPECIALS, size=count)
    return flat.reshape(values.shape)


def _complex(real: np.ndarray, imag: np.ndarray, dtype=complex) -> np.ndarray:
    """Complex array from its parts.

    ``real + 1j * imag`` would not do: ``1j * inf`` has a NaN real part.
    """
    values = np.empty(real.shape, dtype=dtype)
    values.real, values.imag = real, imag
    return values


def _float_cases():
    cases = {}
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        shape = ((257,), (13, 17), (3, 4, 5), (1,))[seed]
        count = max(1, int(np.prod(shape)) // (4 + seed))
        cases[f"float64-seed{seed}"] = _with_specials(rng.standard_normal(shape), seed, count)
    rng = np.random.default_rng(7)
    cases["float32"] = _with_specials(rng.standard_normal(64).astype(np.float32), 7, 9)
    cases["float16"] = _with_specials(rng.standard_normal(32).astype(np.float16), 8, 5)
    cases["float64-finite"] = rng.standard_normal((8, 8))
    cases["float64-all-nonfinite"] = np.array([np.nan, np.inf, -np.inf, np.nan])
    cases["float64-signed-zero"] = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308])
    return cases


def _complex_cases():
    cases = {}
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        imag = _with_specials(rng.standard_normal(40), 300 + seed, 6)
        cases[f"complex128-imag-only-seed{seed}"] = _complex(rng.standard_normal(40), imag)
    rng = np.random.default_rng(9)
    imag = _with_specials(rng.standard_normal(16), 10, 3)
    cases["complex64-imag-only"] = _complex(rng.standard_normal(16), imag, np.complex64)
    real = _with_specials(rng.standard_normal(12), 11, 4)
    cases["complex128-real-only"] = _complex(real, rng.standard_normal(12))
    cases["complex128-finite"] = _complex(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
    return cases


def _other_cases():
    return {
        "int64": np.arange(-20, 20, dtype=np.int64).reshape(5, 8),
        "int8": np.array([-128, 0, 127], dtype=np.int8),
        "uint16": np.array([0, 1, 65535], dtype=np.uint16),
        "uint64-large": np.array([2**64 - 1, 2**63], dtype=np.uint64),
        "bool": np.array([[True, False], [False, True]]),
        "empty-float": np.zeros(0),
        "empty-2d-float": np.zeros((0, 3)),
        "empty-complex": np.zeros(0, dtype=complex),
        "empty-int": np.zeros((2, 0), dtype=np.int32),
        "0d-float": np.array(2.5),
        "0d-nan": np.array(np.nan),
        "0d-neg-inf": np.array(-np.inf, dtype=np.float32),
        "0d-int": np.array(7),
        "0d-bool": np.array(False),
        "0d-complex": _complex(np.array(1.0), np.array(-np.inf)),
    }


CASES = {**_float_cases(), **_complex_cases(), **_other_cases()}


@pytest.fixture
def use_oracle(monkeypatch):
    """Swap the per-element oracle in for the fast ndarray codec."""

    def install():
        monkeypatch.setattr(serialization, "_encode_ndarray", oracle.encode_ndarray)
        monkeypatch.setattr(serialization, "_decode_ndarray", oracle.decode_ndarray)

    return install


def _same_array(left: np.ndarray, right: np.ndarray) -> bool:
    return left.dtype == right.dtype and left.shape == right.shape and left.tobytes() == right.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_codec_matches_the_oracle(name, use_oracle):
    array = CASES[name]
    payload = {"values": array, "pair": (array, 1.5)}
    fast_tree = encode(payload)
    fast_text = canonical_json(payload)
    wire = json.loads(json.dumps(fast_tree, allow_nan=False))
    fast_decoded = decode(wire)

    use_oracle()
    assert encode(payload) == fast_tree
    assert canonical_json(payload) == fast_text
    oracle_decoded = decode(wire)

    assert _same_array(fast_decoded["values"], oracle_decoded["values"])
    assert _same_array(fast_decoded["pair"][0], oracle_decoded["pair"][0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip_is_byte_identical(name):
    array = CASES[name]
    wire = json.loads(json.dumps(encode(array), allow_nan=False))
    assert _same_array(decode(wire), array)
    assert _same_array(decode(encode(array)), array)


def test_non_finite_values_are_named_not_emitted():
    assert encode(CASES["float64-all-nonfinite"])["data"] == ["nan", "inf", "-inf", "nan"]
    node = encode(CASES["complex128-imag-only-seed0"])
    assert node["real"] == CASES["complex128-imag-only-seed0"].real.tolist()  # all finite: no markers
    assert {"nan", "inf", "-inf"} & {v for v in node["imag"] if isinstance(v, str)}


#: ``invocation_key`` of fixed params, recorded before the vectorised codec
#: landed.  Resume keys hash ``canonical_json`` of the params, so a codec
#: change that moved a byte would re-execute every stored result.
GOLDEN_KEYS = [
    (("fig06", "analytic", None, {"shift_hz": 20e6}, {}), "da5bba7e105d2c16"),
    (
        ("fig11", "analytic", 2016, {"messages_per_point": 10, "distances_ft": (1.0, 2.5, 4.0)}, {}),
        "94216a3aeeb16c74",
    ),
    (
        ("table_power", "analytic", None, {"shifts_hz": (10e6, 35.5e6)}, {"source_hash": "0123456789abcdef"}),
        "b29b8b2deac0c021",
    ),
    (
        (
            "coded_ofdm",
            "batch",
            7,
            {"snr_db": np.array([-np.inf, 0.5, np.nan, np.inf]), "trials": 4},
            {"backend": "numpy"},
        ),
        "fbd24d8fb9240d85",
    ),
    (
        (
            "fig09",
            "analytic",
            3,
            {"tones": np.array([1 + 2j, complex(0.0, np.nan)]), "mask": np.array([True, False])},
            {},
        ),
        "e75235240ba992a5",
    ),
    (
        (
            "fig13",
            "analytic",
            None,
            {
                "grid": np.arange(6, dtype=np.int32).reshape(2, 3),
                "empty": np.zeros(0),
                "scalar": np.array(float("inf")),
            },
            {},
        ),
        "8b2039c934730bef",
    ),
    (
        ("fig17", "analytic", 5, {"limit": float("nan"), "table": {1.5: "a", (2, 3): [float("-inf")]}}, {}),
        "1708332bf4132ecb",
    ),
]


@pytest.mark.parametrize("case, expected", GOLDEN_KEYS, ids=[case[0] for case, _ in GOLDEN_KEYS])
def test_invocation_keys_did_not_move(case, expected):
    experiment, engine, seed, params, extra = case
    assert invocation_key(experiment, engine, seed, params, **extra) == expected
