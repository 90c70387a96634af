"""Independent checks of rbc's outputs, written without rbc's own code.

Nothing here imports ``rbc.semantics``, ``rbc.measure`` or ``rbc.moves``:
gates are read only through their public ``kind.value`` and ``offset``
fields, and both the boolean meaning and the termination measure are
recomputed from the definitions in the README.

* ``same_function`` evaluates two circuits bit-sliced: each wire holds a
  2**w-bit integer whose bit i is that wire's value on input row i, so a
  gate is one big-integer operation and all rows run at once.
* ``word_map`` folds a circuit into its routing and per-wire words, and
  ``strictly_below`` is the pointwise order the rewrite rules must respect.
"""

from __future__ import annotations

import random

_ARITY = {"swap": 2, "not": 1, "t2": 2, "t3": 3}
_DIGIT = {"t": 1, "r": 2, "l": 3}  # t < r < l, as bijective base-3 digits


def _input_columns(width: int) -> list[int]:
    """Column j holds bit (width - 1 - j) of every row index 0 .. 2**width - 1."""
    rows = 1 << width
    cols = []
    for j in range(width):
        block = 1 << (width - 1 - j)
        col, span = ((1 << block) - 1) << block, 2 * block
        while span < rows:
            col |= col << span
            span *= 2
        cols.append(col)
    return cols


def _run(width: int, gates, cols: list[int]) -> tuple[int, ...]:
    ones = (1 << (1 << width)) - 1
    c = list(cols)
    for g in gates:
        k, kind = g.offset, g.kind.value
        if kind == "swap":
            c[k], c[k + 1] = c[k + 1], c[k]
        elif kind == "not":
            c[k] ^= ones
        elif kind == "t2":
            c[k + 1] ^= c[k]
        else:
            c[k + 2] ^= c[k] & c[k + 1]
    return tuple(c)


def same_function(a, b) -> bool:
    """True when circuits a and b agree on all 2**width inputs."""
    if a.width != b.width:
        return False
    cols = _input_columns(a.width)
    return _run(a.width, a.gates, cols) == _run(b.width, b.gates, cols)


def word_map(d) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """(src, words): output wire i carries input ``src[i]`` with ``words[i]``
    appended.  A swap stamps ``l`` on the strand it moves up and ``r`` on
    the one it moves down; not/t2/t3 stamp ``t`` on every wire they touch."""
    src = list(range(d.width))
    words = [""] * d.width
    for g in d.gates:
        k, kind = g.offset, g.kind.value
        if kind == "swap":
            src[k], src[k + 1] = src[k + 1], src[k]
            words[k], words[k + 1] = words[k + 1] + "l", words[k] + "r"
        else:
            for i in range(k, k + _ARITY[kind]):
                words[i] += "t"
    return tuple(src), tuple(words)


def _word_key(w: str) -> tuple[int, tuple[int, ...]]:
    return len(w), tuple(_DIGIT[ch] for ch in w)


def rank(words: tuple[str, ...]) -> int:
    """Sum over wires of each word read as a bijective base-3 numeral."""
    total = 0
    for w in words:
        n = 0
        for ch in w:
            n = 3 * n + _DIGIT[ch]
        total += n
    return total


def strictly_below(after, before) -> bool:
    """Same routing, every word at or below, and at least one strictly below."""
    (src_a, words_a), (src_b, words_b) = after, before
    if src_a != src_b:
        return False
    keys = [(_word_key(a), _word_key(b)) for a, b in zip(words_a, words_b)]
    return all(ka <= kb for ka, kb in keys) and any(ka < kb for ka, kb in keys)


def reorder(rng: random.Random, d, moves: int = 30):
    """The same circuit written as another gate list: random adjacent
    transpositions of gates on disjoint wires."""
    gates = list(d.gates)
    for _ in range(moves):
        if len(gates) < 2:
            break
        i = rng.randrange(len(gates) - 1)
        a, b = gates[i], gates[i + 1]
        if (a.offset + _ARITY[a.kind.value] <= b.offset
                or b.offset + _ARITY[b.kind.value] <= a.offset):
            gates[i], gates[i + 1] = b, a
    return type(d)(d.width, tuple(gates))
