"""Reversible boolean circuits as positioned gate lists.

A circuit is a number of wires plus an ordered list of gates, each gate
occupying a contiguous window of wires.  Two gate lists denote the same
circuit when one can be turned into the other by repeatedly swapping
adjacent gates whose windows are disjoint; ``canonicalize`` picks a
unique representative of that class (greedy earliest-layer form) and
``equivalent`` decides the relation.

The before/after order between gates is carried by the wires: a gate
must run after the previous gate on each of its wires, and nothing else
constrains it.  Closure, ancestors, the links between consecutive gates
on a wire, and layering are each one pass over the gate list that keeps
one entry per wire, so they are linear in the number of gates (times
the cost of an OR on bitmasks one bit per gate).  ``wire_links`` gives
the links both ways (next and previous gate on each wire) and the
ancestor masks in one forward pass; that is all the rewrite engine
reads, and ``dependency_closure`` (the descendants) is a utility.
``canonicalize`` is one per-wire depth pass and one sort of the gates
on an int key.  They expect a valid diagram, every gate inside
``width`` wires.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import OutOfRangeError, WidthMismatchError

_ARITY = {"swap": 2, "not": 1, "t2": 2, "t3": 3}


class GateKind(Enum):
    SWAP = "swap"
    NOT = "not"
    T2 = "t2"
    T3 = "t3"

    def __init__(self, token: str) -> None:
        # A plain attribute: hot loops read it without hashing the member.
        self.arity = _ARITY[token]

    # Members are singletons, also after unpickling, so identity hashing
    # agrees with equality; it runs in C, where Enum's hashes the name in
    # Python on every gate, dict or set lookup.
    __hash__ = object.__hash__


# Stable ordering used when sorting gates and diagrams deterministically.
KIND_ORDER = {kind: i for i, kind in enumerate(GateKind)}


@dataclass(frozen=True)
class Gate:
    """A gate kind placed at a wire offset; occupies wires [offset, offset + arity)."""

    kind: GateKind
    offset: int

    @property
    def arity(self) -> int:
        return self.kind.arity

    @property
    def support(self) -> range:
        return range(self.offset, self.offset + self.kind.arity)

    def shifted(self, delta: int) -> "Gate":
        return Gate(self.kind, self.offset + delta)

    def sort_key(self) -> tuple[int, int]:
        return (KIND_ORDER[self.kind], self.offset)


def swap(offset: int) -> Gate:
    return Gate(GateKind.SWAP, offset)


def not_(offset: int) -> Gate:
    return Gate(GateKind.NOT, offset)


def t2(offset: int) -> Gate:
    return Gate(GateKind.T2, offset)


def t3(offset: int) -> Gate:
    return Gate(GateKind.T3, offset)


def gates_overlap(a: Gate, b: Gate) -> bool:
    return a.offset < b.offset + b.arity and b.offset < a.offset + a.arity


def commute(a: Gate, b: Gate) -> bool:
    """Gates with disjoint wire windows may be reordered freely."""
    return not gates_overlap(a, b)


@dataclass(frozen=True)
class Diagram:
    """A circuit: ``width`` wires and an ordered gate list."""

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.gates, tuple):
            object.__setattr__(self, "gates", tuple(self.gates))

    def validate(self) -> None:
        """Raise OutOfRangeError at the first gate not fitting inside the width."""
        if self.width < 0:
            raise OutOfRangeError(-1, f"negative width {self.width}")
        for i, g in enumerate(self.gates):
            if g.offset < 0 or g.offset + g.arity > self.width:
                raise OutOfRangeError(
                    i,
                    f"gate {i} ({g.kind.value} at {g.offset}) spans wires "
                    f"{g.offset}..{g.offset + g.arity - 1} outside width {self.width}",
                )

    def __rshift__(self, other: "Diagram") -> "Diagram":
        return compose_seq(self, other)

    def __matmul__(self, other: "Diagram") -> "Diagram":
        return compose_par(self, other)


def identity(width: int) -> Diagram:
    return Diagram(width, ())


def compose_seq(d1: Diagram, d2: Diagram) -> Diagram:
    """Run d1 first, then d2.  Widths must agree."""
    if d1.width != d2.width:
        raise WidthMismatchError(
            f"cannot chain width {d1.width} into width {d2.width}"
        )
    return Diagram(d1.width, d1.gates + d2.gates)


def compose_par(d1: Diagram, d2: Diagram) -> Diagram:
    """Stack d2 below d1; d2's gates are shifted down by d1's width."""
    shifted = tuple(g.shifted(d1.width) for g in d2.gates)
    return Diagram(d1.width + d2.width, d1.gates + shifted)


# A layer is a group of gates with pairwise disjoint windows, kept
# sorted by offset.
Layer = tuple[Gate, ...]


def _layer_keys(d: Diagram) -> list[int]:
    """Per gate, ``level * width + offset``, where level is the gate's
    greedy earliest layer: one past the last layer used on any of its
    wires.  Gates in one layer are disjoint, so the keys are unique and
    sorting by them lists the layers in order, each by offset."""
    width = d.width
    depth = [0] * width  # layers used so far on each wire
    keys = []
    for g in d.gates:
        lo = g.offset
        arity = g.kind.arity
        if arity == 1:
            level = depth[lo]
            depth[lo] = level + 1
        elif arity == 2:
            level = depth[lo]
            other = depth[lo + 1]
            if other > level:
                level = other
            depth[lo] = depth[lo + 1] = level + 1
        else:
            level = max(depth[lo], depth[lo + 1], depth[lo + 2])
            depth[lo] = depth[lo + 1] = depth[lo + 2] = level + 1
        keys.append(level * width + lo)
    return keys


def layers(d: Diagram) -> tuple[Layer, ...]:
    """Greedy earliest-layer decomposition of the gate list.

    Each gate lands in the first layer after every earlier gate whose
    window overlaps its own, so gates within one layer never overlap.
    Per wire, that is one past the last layer used on any of its wires.
    """
    by_key = dict(zip(_layer_keys(d), d.gates))
    buckets: list[list[Gate]] = []
    for key in sorted(by_key):
        level = key // d.width
        if level == len(buckets):
            buckets.append([])
        buckets[level].append(by_key[key])
    return tuple(map(tuple, buckets))


def canonicalize(d: Diagram) -> Diagram:
    """Unique representative of d's reordering class: the layers,
    flattened, found by one sort on the layer keys."""
    by_key = dict(zip(_layer_keys(d), d.gates))
    return Diagram(d.width, tuple(map(by_key.__getitem__, sorted(by_key))))


def equivalent(d1: Diagram, d2: Diagram) -> bool:
    """True when the two circuits differ only by reordering disjoint gates."""
    if d1.width != d2.width:
        return False
    return canonicalize(d1).gates == canonicalize(d2).gates


def dependency_closure(d: Diagram) -> tuple[int, ...]:
    """Per gate index i, a bitmask of all indices that must run after i.

    One backward pass: the gates after i are the next gate on each of
    its wires, plus everything after those.
    """
    gates = d.gates
    n = len(gates)
    after = [0] * n
    first = [-1] * d.width  # earliest gate seen so far on each wire
    for i in range(n - 1, -1, -1):
        g = gates[i]
        lo = g.offset
        acc = 0
        for w in range(lo, lo + g.kind.arity):
            j = first[w]
            if j >= 0:
                acc |= (1 << j) | after[j]
            first[w] = i
        after[i] = acc
    return tuple(after)


def wire_links(d: Diagram) -> tuple[list[int], list[int], list[int]]:
    """The per-wire links both ways and the ancestor masks, in one
    forward pass.

    Returns ``(succ, pred, before)``.  ``succ[3 * i + r]`` is the next
    gate after gate i on wire ``offset + r`` of gate i, and
    ``pred[3 * i + r]`` the previous one, or -1 when there is none (or
    gate i has fewer than r + 1 wires).  ``before[i]`` is the bitmask of
    all indices that must run before i, the mirror of
    ``dependency_closure``.
    """
    gates = d.gates
    succ = [-1] * (3 * len(gates))
    pred = succ[:]
    before = [0] * len(gates)
    last = [-1] * d.width  # link slot of the latest gate on each wire
    # One branch per wire, unrolled: a loop over each gate's wires costs
    # more than the links themselves.
    for j, g in enumerate(gates):
        lo = g.offset
        base = 3 * j
        slot = last[lo]
        if slot >= 0:
            succ[slot] = j
            i = slot // 3
            pred[base] = i
            acc = (1 << i) | before[i]
        else:
            acc = 0
        last[lo] = base
        arity = g.kind.arity
        if arity > 1:
            slot = last[lo + 1]
            if slot >= 0:
                succ[slot] = j
                i = slot // 3
                pred[base + 1] = i
                acc |= (1 << i) | before[i]
            last[lo + 1] = base + 1
            if arity > 2:
                slot = last[lo + 2]
                if slot >= 0:
                    succ[slot] = j
                    i = slot // 3
                    pred[base + 2] = i
                    acc |= (1 << i) | before[i]
                last[lo + 2] = base + 2
        before[j] = acc
    return succ, pred, before


def sort_key(d: Diagram) -> tuple:
    """Deterministic ordering key for sets of diagrams."""
    return (d.width, len(d.gates), tuple(g.sort_key() for g in d.gates))
