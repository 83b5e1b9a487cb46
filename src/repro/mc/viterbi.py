"""Trellis-batched K=7 convolutional encoder and batched Viterbi decoding.

The scalar implementations in :mod:`repro.wifi.ofdm.convolutional` walk the
trellis one state and one bit at a time; decoding N codewords costs
``N × L × 64 × 2`` Python-level iterations.  The batched versions here keep
the *entire* batch's state metrics in one ``[N, 64]`` array and advance all
N trellises per step with a handful of array operations, which is what makes
Monte-Carlo PER sweeps over thousands of codewords tractable.

Both functions are bit-exact with their scalar counterparts (including
tie-breaking): the scalar decoder's strict ``<`` update keeps the first
candidate on a tie, and every next state's first candidate comes from the
lower of its two predecessors, so a strict ``<`` between the butterfly's
lower and upper predecessor reproduces the identical survivor choice.  The
equivalence tests in ``tests/mc`` assert this across random codewords,
erasure masks and start states, against the scalar hard decoder and a
plain-Python soft-metric oracle.

``decode_batch`` also accepts demapper log-likelihood ratios
(``soft=True``): the trellis already carries float path metrics, so the
branch cost simply changes from masked Hamming distance to the negative
correlation ``−Σ (2c−1)·λ`` between the branch's expected coded bits and
the received LLRs (positive LLR ⇒ bit 1, the
:func:`repro.mc.kernels.demap_soft_batch` convention).  Feeding the
hard-decision LLRs ``2r−1`` reproduces the hard decoder's survivors
exactly — the per-step costs differ only by a positive affine map, which
preserves every comparison including ties.

Every entry point takes an explicit array namespace via the keyword-only
``xp`` argument (``None`` → the default backend) and uses only
array-API-portable operations; the constant trellis tables are built in
numpy once and converted per call with ``xp.asarray``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mc.backend import resolve_namespace
from repro.mc.kernels import _as_matrix
from repro.obs import metrics as obs
from repro.wifi.ofdm.convolutional import (
    CONSTRAINT_LENGTH,
    _G1_TAPS,
    _G2_TAPS,
)

__all__ = ["encode_batch", "BatchViterbiDecoder"]

_NUM_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_HALF_STATES = _NUM_STATES // 2
_HISTORY_BITS = CONSTRAINT_LENGTH - 1
#: The 4 coded-bit pairs ``(C1, C2)`` a branch can expect, indexed ``2·C1 + C2``.
_PAIR_BITS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)


def _as_bit_matrix(bits, xp):
    """Coerce input to a 2-D ``uint8`` 0/1 matrix ``[N, L]``."""
    return _as_matrix(bits, xp, dtype=xp.uint8, validate_bits=True)


def encode_batch(bits, *, initial_history=None, xp=None):
    """Encode ``bits[N, L]`` to interleaved pairs ``C1 C2`` of shape ``[N, 2L]``.

    ``initial_history`` is the ``[b[k-1], ..., b[k-6]]`` preload shared by all
    rows (or per-row when given as ``[N, 6]``); the default all-zeros matches
    the 802.11 frame start, exactly like the scalar encoder.
    """
    xp = resolve_namespace(xp)
    arr = _as_bit_matrix(bits, xp)
    n, length = arr.shape
    if initial_history is None:
        history = xp.zeros((n, _HISTORY_BITS), dtype=xp.uint8)
    else:
        history = xp.astype(xp.asarray(initial_history), xp.uint8)
        if history.ndim == 1:
            history = xp.broadcast_to(history[None, :], (n, history.shape[0]))
        if history.shape != (n, _HISTORY_BITS):
            raise ConfigurationError(
                f"history must have {_HISTORY_BITS} bits per row, got shape {history.shape}"
            )
    # padded[:, 6 - d : 6 - d + L] is b[k-d]; column layout [b[k-6] .. b[k-1] b[0] ..].
    padded = xp.concat([xp.flip(history, axis=1), arr], axis=1)
    c1 = xp.zeros((n, length), dtype=xp.uint8)
    c2 = xp.zeros((n, length), dtype=xp.uint8)
    for tap in _G1_TAPS:
        c1 = xp.bitwise_xor(c1, padded[:, _HISTORY_BITS - tap : _HISTORY_BITS - tap + length])
    for tap in _G2_TAPS:
        c2 = xp.bitwise_xor(c2, padded[:, _HISTORY_BITS - tap : _HISTORY_BITS - tap + length])
    # out[:, 0::2] = c1; out[:, 1::2] = c2 — expressed as a portable
    # stack-then-reshape instead of strided scatter assignment.
    return xp.reshape(xp.stack([c1, c2], axis=2), (n, 2 * length))


class BatchViterbiDecoder:
    """Batched Viterbi over many codewords at once (hard or soft decision).

    ``decode_batch(coded[N, L])`` advances all N trellises together, one
    radix-2 butterfly per step: next states ``2j`` and ``2j+1`` both come
    from predecessors ``j`` and ``j+32``, so each half of the ``[N, 64]``
    metrics broadcasts against ``[N, 32, 2]`` branch costs gathered from
    the step's 4 coded-bit-pair costs, and the survivor choice is a single
    strict ``<`` between the lower and the upper predecessor's candidate.
    """

    def __init__(self) -> None:
        # Expected pair index 2·C1 + C2 of every transition, (state, bit) in
        # row-major order: encode the input bit from the state's history.
        transitions = np.arange(2 * _NUM_STATES)
        history = ((transitions[:, None] >> 1) >> np.arange(_HISTORY_BITS)) & 1  # [128, 6]
        pairs = encode_batch((transitions & 1)[:, None], initial_history=history, xp=np)
        pattern = 2 * pairs[:, 0].astype(np.int64) + pairs[:, 1]  # [128]
        # Next state of (state, bit) is bit | ((state & 0x1F) << 1), so
        # predecessor j (or j + 32) on input bit b feeds next state 2j + b:
        # row-major (j, bit) order *is* next-state order.
        self._lower_pattern = pattern[:_NUM_STATES]  # predecessors 0..31
        self._upper_pattern = pattern[_NUM_STATES:]  # predecessors 32..63

    def decode_batch(
        self,
        coded_bits,
        *,
        known_mask=None,
        initial_state: int = 0,
        soft: bool = False,
        xp=None,
    ):
        """Decode ``coded_bits[N, L]`` (``C1 C2`` interleaved) to ``[N, L // 2]``.

        With ``soft=False`` the input is hard coded bits; with ``soft=True``
        it is demapper LLRs (positive ⇒ bit 1) and the branch metric is the
        negative LLR correlation.  ``known_mask`` marks real (non-erasure)
        positions exactly as in the scalar decoder and may be ``[L]``
        (shared) or ``[N, L]`` (per row); for LLR input an erased position
        simply contributes 0 either way.
        """
        xp = resolve_namespace(xp)
        if soft:
            coded = _as_matrix(coded_bits, xp, dtype=xp.float64, keep_floating=True)
        else:
            coded = _as_bit_matrix(coded_bits, xp)
        n, length = coded.shape
        if length % 2 != 0:
            raise ValueError("coded bit count must be even")
        if known_mask is None:
            known = xp.ones((n, length), dtype=xp.bool)
        else:
            known = xp.astype(xp.asarray(known_mask), xp.bool)
            if known.ndim == 1:
                known = xp.broadcast_to(known[None, :], (n, length))
            if known.shape != (n, length):
                raise ValueError("known_mask shape mismatch")
        num_steps = length // 2

        with obs.span("mc.viterbi.decode_batch", codewords=int(n), coded_bits=int(length)):
            obs.count("mc.viterbi.codewords_decoded", n)
            start = xp.where(
                xp.arange(_NUM_STATES) == initial_state,
                xp.zeros(_NUM_STATES, dtype=xp.float64),
                xp.full(_NUM_STATES, xp.inf, dtype=xp.float64),
            )
            metrics = xp.broadcast_to(start[None, :], (n, _NUM_STATES))
            # Survivor choice per step: True where the upper predecessor won.
            choices: list = [None] * num_steps

            # Cost of each step's 4 possible expected pairs: [N, steps, 4].
            if soft:
                # Masked LLRs: an erased position carries zero evidence.
                lam = xp.reshape(coded * xp.astype(known, xp.float64), (n, num_steps, 1, 2))
                signs = xp.asarray(2.0 * _PAIR_BITS - 1.0)  # [4, 2]
                # Negative correlation between the pair's ±1 coded symbols
                # and the received LLRs: agreeing evidence lowers the path
                # metric.
                costs = -(signs[:, 0] * lam[..., 0] + signs[:, 1] * lam[..., 1])
            else:
                r = xp.reshape(coded, (n, num_steps, 1, 2))
                m = xp.reshape(known, (n, num_steps, 1, 2))
                mismatch = (xp.asarray(_PAIR_BITS) != r) & m  # [N, steps, 4, 2]
                # The boolean mismatch terms must be cast *before* summing:
                # booleans add as logical OR, which would collapse a two-bit
                # mismatch into a cost of 1.
                costs = xp.astype(mismatch[..., 0], xp.float64) + xp.astype(mismatch[..., 1], xp.float64)
            lower_pattern = xp.asarray(self._lower_pattern)
            upper_pattern = xp.asarray(self._upper_pattern)
            butterfly = (n, _HALF_STATES, 2)
            flat = (n, _NUM_STATES)
            for step in range(num_steps):
                step_costs = costs[:, step, :]  # [N, 4]
                lower = xp.reshape(metrics[:, :_HALF_STATES], (n, _HALF_STATES, 1))
                upper = xp.reshape(metrics[:, _HALF_STATES:], (n, _HALF_STATES, 1))
                # Candidates for next states 2j, 2j+1 from predecessor j (a)
                # and from predecessor j + 32 (b), in next-state order.
                a = xp.reshape(lower + xp.reshape(xp.take(step_costs, lower_pattern, axis=1), butterfly), flat)
                b = xp.reshape(upper + xp.reshape(xp.take(step_costs, upper_pattern, axis=1), butterfly), flat)
                # Strict <: a tie (inf against inf included) keeps the lower
                # predecessor, as the scalar decoder's strict update does.
                choices[step] = b < a
                # minimum() is the value where(choice, b, a) selects, up to
                # the sign of a zero that no later comparison can see — and
                # several times cheaper than where() on a random mask.
                metrics = xp.minimum(a, b)

            state = xp.argmin(metrics, axis=1)  # [N]; first occurrence, as scalar
            row_offsets = xp.arange(n) * _NUM_STATES
            columns: list = [None] * num_steps
            for step in range(num_steps - 1, -1, -1):
                columns[step] = xp.astype(state & 1, xp.uint8)
                # choices[step][rows, state] as a flat portable gather.
                winner = xp.take(xp.reshape(choices[step], (-1,)), row_offsets + state)
                state = (state >> 1) | (xp.astype(winner, xp.int64) << (_HISTORY_BITS - 1))
            return xp.stack(columns, axis=1)
