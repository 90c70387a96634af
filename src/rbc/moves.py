"""Cost words over the letters l, r, t, and wire-indexed word maps.

Words record what happens to a signal as it crosses gates: ``l`` and
``r`` mark the left and right strand of a wire crossing, ``t`` marks
passage through a toffoli-family gate.  Words are ordered first by
length, then lexicographically with t < r < l; ``word_rank`` is the
order isomorphism onto the naturals (bijective base 3).

A ``MoveMap`` sends n input words to n output words: output i is input
``src[i]`` with ``suffixes[i]`` appended.  Maps compose in series and
in parallel, and compare pointwise; a ``MoveStep`` is a non-increasing
pair of maps, the unit of progress for the rewrite system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    LengthMismatchError,
    NotComposableError,
    NotDecreasingError,
    WidthMismatchError,
)

# Digit values double as letter weights: t < r < l.
_DIGIT = {"t": 1, "r": 2, "l": 3}


class Ordering(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _check_word(w: str) -> None:
    for ch in w:
        if ch not in _DIGIT:
            raise ValueError(f"invalid move letter {ch!r} in {w!r}")


def word_key(w: str) -> tuple[int, tuple[int, ...]]:
    _check_word(w)
    return (len(w), tuple(_DIGIT[ch] for ch in w))


def word_compare(a: str, b: str) -> Ordering:
    ka, kb = word_key(a), word_key(b)
    if ka == kb:
        return Ordering.EQUAL
    return Ordering.LESS if ka < kb else Ordering.GREATER


def word_le(a: str, b: str) -> bool:
    return word_key(a) <= word_key(b)


def word_rank(w: str) -> int:
    """Position of w in the length-then-lex order; empty word ranks 0."""
    _check_word(w)
    n = 0
    for ch in w:
        n = 3 * n + _DIGIT[ch]
    return n


@dataclass(frozen=True)
class MoveMap:
    """out[i] = in[src[i]] ++ suffixes[i]; src is a permutation."""

    src: tuple[int, ...]
    suffixes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.src, tuple):
            object.__setattr__(self, "src", tuple(self.src))
        if not isinstance(self.suffixes, tuple):
            object.__setattr__(self, "suffixes", tuple(self.suffixes))
        if len(self.src) != len(self.suffixes):
            raise LengthMismatchError(
                f"{len(self.src)} sources vs {len(self.suffixes)} suffixes"
            )
        if sorted(self.src) != list(range(len(self.src))):
            raise ValueError(f"src {self.src} is not a permutation")
        for s in self.suffixes:
            _check_word(s)

    @property
    def n(self) -> int:
        return len(self.src)

    def lines(self) -> list[str]:
        return [
            f'out[{i}] <- in[{self.src[i]}] ++ "{self.suffixes[i]}"'
            for i in range(self.n)
        ]

    def format(self) -> str:
        return "\n".join(self.lines())


def identity_map(n: int) -> MoveMap:
    return MoveMap(tuple(range(n)), ("",) * n)


def map_apply(f: MoveMap, xs: tuple[str, ...]) -> tuple[str, ...]:
    if len(xs) != f.n:
        raise LengthMismatchError(f"map of width {f.n} applied to {len(xs)} words")
    return tuple(xs[f.src[i]] + f.suffixes[i] for i in range(f.n))


def map_seq(f: MoveMap, g: MoveMap) -> MoveMap:
    """f first, then g: applying the result equals applying f then g."""
    if f.n != g.n:
        raise WidthMismatchError(f"map widths {f.n} and {g.n} differ")
    src = tuple(f.src[g.src[i]] for i in range(f.n))
    suffixes = tuple(f.suffixes[g.src[i]] + g.suffixes[i] for i in range(f.n))
    return MoveMap(src, suffixes)


def map_par(f: MoveMap, g: MoveMap) -> MoveMap:
    src = f.src + tuple(j + f.n for j in g.src)
    return MoveMap(src, f.suffixes + g.suffixes)


def map_compare(f: MoveMap, g: MoveMap) -> Ordering:
    """Pointwise order: comparable only with equal routing, then
    componentwise on suffixes with at least one strict component."""
    if f.n != g.n:
        raise WidthMismatchError(f"map widths {f.n} and {g.n} differ")
    if f == g:
        return Ordering.EQUAL
    if f.src != g.src:
        return Ordering.INCOMPARABLE
    # Both maps checked their letters when built, so the suffixes are
    # compared directly: by length, then lexicographically with
    # t < r < l, the reverse of the letters' code point order.
    le = ge = True
    for a, b in zip(f.suffixes, g.suffixes):
        if a == b:
            continue
        less = len(a) < len(b) if len(a) != len(b) else a > b
        if less:
            ge = False
        else:
            le = False
    if le and not ge:
        return Ordering.LESS
    if ge and not le:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def total_rank(f: MoveMap) -> int:
    """Sum of suffix ranks: the natural-number shadow of the map.

    The map checked its letters when built, so each suffix's digits are
    folded directly, as ``word_rank`` does after its check."""
    total = 0
    for s in f.suffixes:
        n = 0
        for ch in s:
            n = 3 * n + _DIGIT[ch]
        total += n
    return total


@dataclass(frozen=True)
class MoveStep:
    """A pair of maps with ``after`` at or below ``before``."""

    before: MoveMap
    after: MoveMap

    def __post_init__(self) -> None:
        c = map_compare(self.after, self.before)
        if c not in (Ordering.LESS, Ordering.EQUAL):
            raise NotDecreasingError(
                f"step target compares {c.value} against its source"
            )

    @property
    def is_strict(self) -> bool:
        return map_compare(self.after, self.before) is Ordering.LESS


def step_par(a: MoveStep, b: MoveStep) -> MoveStep:
    return MoveStep(map_par(a.before, b.before), map_par(a.after, b.after))


def step_seq(a: MoveStep, b: MoveStep) -> MoveStep:
    return MoveStep(map_seq(a.before, b.before), map_seq(a.after, b.after))


def step_chain(a: MoveStep, b: MoveStep) -> MoveStep:
    """Glue a and b end to end; a must land exactly where b starts."""
    if a.after != b.before:
        raise NotComposableError("steps do not meet: first ends off the second's start")
    return MoveStep(a.before, b.after)
