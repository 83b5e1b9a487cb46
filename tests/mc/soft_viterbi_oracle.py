"""Plain-Python soft-decision Viterbi: the oracle for ``decode_batch(soft=True)``.

The hard-input path of :class:`repro.mc.BatchViterbiDecoder` is checked
against the scalar :class:`repro.wifi.ofdm.convolutional.ViterbiDecoder`;
this module is the soft-input counterpart.  It walks one codeword, one
state and one bit at a time with Python floats (IEEE doubles, so every
path metric is bit-identical to the batched float64 arithmetic):

* an erased position's LLR is multiplied by ``0.0``, as the batched
  decoder masks it;
* a branch costs ``-(s0·λ0 + s1·λ1)`` with ``s = 2c − 1`` the branch's
  ±1 coded symbols;
* predecessors are visited in ascending state order and a candidate only
  replaces the incumbent on a strict ``<``, so a tie keeps the lower
  predecessor — the scalar hard decoder's rule.
"""

from __future__ import annotations

import math

from repro.wifi.ofdm.convolutional import CONSTRAINT_LENGTH, _G1_TAPS, _G2_TAPS

_NUM_STATES = 1 << (CONSTRAINT_LENGTH - 1)


def _branch_table() -> list[list[tuple[int, float, float]]]:
    """``table[state][bit] = (next_state, s0, s1)`` for the K=7 trellis."""
    table = []
    for state in range(_NUM_STATES):
        history = [(state >> i) & 1 for i in range(CONSTRAINT_LENGTH - 1)]
        row = []
        for bit in (0, 1):
            window = [bit] + history
            c1 = c2 = 0
            for tap in _G1_TAPS:
                c1 ^= window[tap]
            for tap in _G2_TAPS:
                c2 ^= window[tap]
            next_state = bit | ((state & 0x1F) << 1)
            row.append((next_state, 2.0 * c1 - 1.0, 2.0 * c2 - 1.0))
        table.append(row)
    return table


_BRANCHES = _branch_table()


def soft_viterbi_decode(llrs, known_mask=None, initial_state: int = 0) -> list[int]:
    """Decode one codeword of LLRs (``C1 C2`` interleaved, positive ⇒ 1) to data bits."""
    values = [float(value) for value in llrs]
    known = [True] * len(values) if known_mask is None else [bool(flag) for flag in known_mask]
    masked = [value * (1.0 if flag else 0.0) for value, flag in zip(values, known, strict=True)]
    num_steps = len(masked) // 2

    metrics = [math.inf] * _NUM_STATES
    metrics[initial_state] = 0.0
    survivors: list[list[tuple[int, int]]] = []
    for step in range(num_steps):
        lam0, lam1 = masked[2 * step], masked[2 * step + 1]
        new_metrics = [math.inf] * _NUM_STATES
        back = [(0, 0)] * _NUM_STATES
        for state in range(_NUM_STATES):
            for bit in (0, 1):
                next_state, s0, s1 = _BRANCHES[state][bit]
                candidate = metrics[state] + -(s0 * lam0 + s1 * lam1)
                if candidate < new_metrics[next_state]:
                    new_metrics[next_state] = candidate
                    back[next_state] = (state, bit)
        metrics = new_metrics
        survivors.append(back)

    # First occurrence of the minimum, as numpy's argmin picks it.
    state = min(range(_NUM_STATES), key=metrics.__getitem__)
    decoded = [0] * num_steps
    for step in range(num_steps - 1, -1, -1):
        state, decoded[step] = survivors[step][state]
    return decoded
