"""Differential tests: batched Viterbi against its scalar oracles.

Hard input is checked against the scalar
:class:`~repro.wifi.ofdm.convolutional.ViterbiDecoder`, soft input against
the plain-Python soft-metric decoder in :mod:`tests.mc.soft_viterbi_oracle`.
Both oracles break ties by a strict ``<`` over predecessors in ascending
state order, so integer-valued (tie-heavy) LLRs and fully erased steps
exercise the batched survivor selection's tie rule, not just its arithmetic.
Every case runs on numpy and on the ``array-api-strict`` namespace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mc.backend import get_namespace, to_numpy
from repro.mc.viterbi import BatchViterbiDecoder, encode_batch
from repro.wifi.ofdm.convolutional import ViterbiDecoder
from tests.mc.soft_viterbi_oracle import soft_viterbi_decode

BACKENDS = ("numpy", "array-api-strict")
MASK_KINDS = ("none", "shared", "per_row")
EDGE_CASES = ("erased_run", "single_row", "one_step", "per_row_mask_nonzero_start")


@pytest.fixture(scope="module")
def decoder() -> BatchViterbiDecoder:
    return BatchViterbiDecoder()


def _llrs(rng: np.random.Generator, coded: np.ndarray, kind: str) -> np.ndarray:
    """Noisy LLRs for *coded*: Gaussian, or small integers that tie often."""
    symbols = 2.0 * coded.astype(np.float64) - 1.0
    if kind == "gaussian":
        return 2.0 * symbols + 1.5 * rng.standard_normal(coded.shape)
    return symbols + rng.integers(-2, 3, size=coded.shape).astype(np.float64)


def _mask(rng: np.random.Generator, shape: tuple[int, int], kind: str):
    if kind == "none":
        return None
    if kind == "shared":
        return rng.random(shape[1]) < 0.8
    return rng.random(shape) < 0.8


def _decode(decoder, inputs, known, initial_state, soft, backend):
    xp = get_namespace(backend)
    mask = None if known is None else xp.asarray(known)
    decoded = decoder.decode_batch(xp.asarray(inputs), known_mask=mask, initial_state=initial_state, soft=soft, xp=xp)
    return to_numpy(decoded)


def _reference(inputs, known, initial_state, soft):
    scalar = ViterbiDecoder()
    rows = []
    for index, row in enumerate(inputs):
        row_mask = None if known is None else (known if known.ndim == 1 else known[index])
        if soft:
            rows.append(soft_viterbi_decode(row, row_mask, initial_state=initial_state))
        else:
            rows.append(scalar.decode(row, known_mask=row_mask, initial_state=initial_state))
    return np.asarray(rows, dtype=np.uint8)


class TestSoftOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("initial_state", [0, 45])
    @pytest.mark.parametrize("mask_kind", MASK_KINDS)
    @pytest.mark.parametrize("llr_kind", ["gaussian", "integer"])
    def test_soft_matches_scalar_oracle(self, decoder, llr_kind, mask_kind, initial_state, backend):
        rng = np.random.default_rng([llr_kind == "integer", MASK_KINDS.index(mask_kind), initial_state])
        bits = rng.integers(0, 2, size=(6, 40), dtype=np.uint8)
        llrs = _llrs(rng, encode_batch(bits), llr_kind)
        known = _mask(rng, llrs.shape, mask_kind)
        decoded = _decode(decoder, llrs, known, initial_state, True, backend)
        np.testing.assert_array_equal(decoded, _reference(llrs, known, initial_state, True))

    def test_oracle_recovers_clean_codeword(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(1, 30), dtype=np.uint8)
        llrs = 4.0 * (2.0 * encode_batch(bits)[0].astype(np.float64) - 1.0)
        assert soft_viterbi_decode(llrs) == bits[0].tolist()


def _edge_inputs(rng, case: str, soft: bool):
    """``(inputs, known, initial_state)`` for one edge case."""
    rows, data_bits, initial_state, known = 5, 36, 0, None
    if case == "single_row":
        rows = 1
    elif case == "one_step":
        data_bits = 1
    coded = encode_batch(rng.integers(0, 2, size=(rows, data_bits), dtype=np.uint8))
    if case == "erased_run":
        # Twelve fully erased steps: every candidate in them ties.
        known = np.ones(coded.shape[1], dtype=bool)
        known[20:44] = False
    elif case == "per_row_mask_nonzero_start":
        known = rng.random(coded.shape) < 0.7
        initial_state = 37
    if soft:
        return _llrs(rng, coded, "integer"), known, initial_state
    noisy = coded ^ (rng.random(coded.shape) < 0.1).astype(np.uint8)
    return noisy, known, initial_state


class TestEdgeCases:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_matches_oracle(self, decoder, case, soft, backend):
        rng = np.random.default_rng(EDGE_CASES.index(case))
        inputs, known, initial_state = _edge_inputs(rng, case, soft)
        decoded = _decode(decoder, inputs, known, initial_state, soft, backend)
        np.testing.assert_array_equal(decoded, _reference(inputs, known, initial_state, soft))
