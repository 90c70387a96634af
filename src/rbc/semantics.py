"""Boolean meaning of circuits: truth tables and single-input evaluation.

Wire 0 is the most significant bit when inputs are read off as binary
strings, so truth-table rows run through inputs 00..0, 00..1, ... in
ascending numeric order.

Truth tables are bit-sliced: a table holds one column per wire, a
Python int of 2**width bits whose bit r is that wire's value on input
row r.  Running a gate over every row at once is then one big-int
operation on its columns: swap exchanges two columns, not XORs a column
with all ones, t2 does ``c ^= x`` and t3 does ``c ^= x & y``.  Tables,
rule checks and trace checks all go through this one kernel; rows are
only spelled out when a table is printed.  ``evaluate`` (``rbc eval``)
runs the same kernel on one row: each input bit is a one-row column, so
it has no width cap.  Like the dependency passes, the kernel expects a
valid diagram, every gate inside ``width`` wires.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .diagram import Diagram, GateKind
from .errors import InputError, WidthMismatchError, WidthTooLargeError

BitVec = tuple[int, ...]

# Widest circuit whose 2**n-row table we will enumerate by default.
DEFAULT_WIDTH_CAP = 12


def index_to_bits(index: int, width: int) -> BitVec:
    return tuple((index >> (width - 1 - j)) & 1 for j in range(width))


def bits_to_str(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


@dataclass(frozen=True)
class TruthTable:
    """``columns[j]`` has bit r set when wire j reads 1 on output row r."""

    width: int
    columns: tuple[int, ...]

    @property
    def rows(self) -> tuple[BitVec, ...]:
        n = 1 << self.width
        if not self.columns:
            return ((),) * n
        # Each column as a bit string, row 0 first.
        strings = [format(c, f"0{n}b")[::-1] for c in self.columns]
        return tuple(tuple(map(int, row)) for row in zip(*strings))

    def lines(self) -> list[str]:
        out = []
        for i, row in enumerate(self.rows):
            out.append(f"{bits_to_str(index_to_bits(i, self.width))} -> {bits_to_str(row)}")
        return out


@functools.lru_cache(maxsize=32)
def _identity_columns(width: int) -> tuple[int, ...]:
    """Wire j reads bit width-1-j of the row index: runs of 2**(width-1-j)
    zeros then as many ones, repeated up to 2**width bits."""
    n = 1 << width
    ones = (1 << n) - 1
    cols = []
    for j in range(width):
        p = 1 << (width - 1 - j)
        # The 2p-bit block 1..10..0 spread over n bits by multiplying with
        # the repunit 1 + 2**2p + 2**4p + ...
        cols.append((((1 << p) - 1) << p) * (ones // ((1 << 2 * p) - 1)))
    return tuple(cols)


def _run(d: Diagram, cols: Sequence[int], ones: int) -> tuple[int, ...]:
    """The columns ``cols`` pushed through each gate of d; ``ones`` has a
    bit set for every row."""
    cols = list(cols)
    for g in d.gates:
        o = g.offset
        kind = g.kind
        if kind is GateKind.SWAP:
            cols[o], cols[o + 1] = cols[o + 1], cols[o]
        elif kind is GateKind.NOT:
            cols[o] ^= ones
        elif kind is GateKind.T2:
            cols[o + 1] ^= cols[o]
        else:
            cols[o + 2] ^= cols[o] & cols[o + 1]
    return tuple(cols)


def evaluate(d: Diagram, bits: Sequence[int]) -> BitVec:
    if len(bits) != d.width:
        raise WidthMismatchError(
            f"input has {len(bits)} bits, circuit has width {d.width}"
        )
    if any(b not in (0, 1) for b in bits):
        raise InputError(f"input {tuple(bits)} holds a value other than 0 and 1")
    return _run(d, bits, 1)


def truth_table(d: Diagram, max_width: int | None = None) -> TruthTable:
    cap = DEFAULT_WIDTH_CAP if max_width is None else max_width
    if d.width > cap:
        raise WidthTooLargeError(
            f"width {d.width} exceeds truth-table cap {cap}"
        )
    ones = (1 << (1 << d.width)) - 1
    return TruthTable(d.width, _run(d, _identity_columns(d.width), ones))


def identity_table(width: int) -> TruthTable:
    return TruthTable(width, _identity_columns(width))


def is_permutation(t: TruthTable) -> bool:
    rows = t.rows
    return len(set(rows)) == len(rows)
