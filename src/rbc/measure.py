"""Termination measure: every circuit denotes a word map.

A swap routes each input across to the other wire, stamping ``l`` on
the strand that crosses leftward (upward) and ``r`` on the other; the
toffoli-family gates keep routing fixed and stamp ``t`` on every wire
they touch.  Chaining gates chains the maps, so a whole circuit yields
one MoveMap.  Each rewrite rule is checked by comparing the maps of its
two sides: the replacement must sit strictly below the pattern, which
is what makes normalization terminate.

``measure`` folds the gates directly into one routing list and one
suffix list, touching only each gate's window: a swap at o exchanges
the sources at o and o+1 and stamps the strands as they cross, every
other gate appends ``t`` on each of its wires.  The MoveMap, with its
permutation and letter checks, is built once at the end.  This is the
same map as chaining each gate's map padded with identities, without
building and validating two full-width maps per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .diagram import Diagram, GateKind
from .moves import MoveMap, MoveStep, Ordering, map_compare

if TYPE_CHECKING:  # pragma: no cover
    from .rewriting import Rule

_GATE_MAPS = {
    GateKind.SWAP: MoveMap((1, 0), ("l", "r")),
    GateKind.NOT: MoveMap((0,), ("t",)),
    GateKind.T2: MoveMap((0, 1), ("t", "t")),
    GateKind.T3: MoveMap((0, 1, 2), ("t", "t", "t")),
}


def gate_measure(kind: GateKind) -> MoveMap:
    return _GATE_MAPS[kind]


def measure(d: Diagram) -> MoveMap:
    """Fold the gate list into one map.  Reordering disjoint gates does
    not change the result, so the measure is well defined on circuits."""
    src = list(range(d.width))
    suf = [""] * d.width
    for g in d.gates:
        o = g.offset
        if g.kind is GateKind.SWAP:
            src[o], src[o + 1] = src[o + 1], src[o]
            suf[o], suf[o + 1] = suf[o + 1] + "l", suf[o] + "r"
        else:
            for j in range(o, o + g.kind.arity):
                suf[j] += "t"
    return MoveMap(tuple(src), tuple(suf))


def rule_measure(rule: "Rule") -> MoveStep:
    """Pattern/replacement maps as a step; raises NotDecreasingError
    if the replacement does not sit at or below the pattern."""
    return MoveStep(measure(rule.lhs), measure(rule.rhs))


def _fmt_word(w: str) -> str:
    return w if w else "ε"


def _fmt_vector(suffixes: tuple[str, ...]) -> str:
    return "(" + ", ".join(_fmt_word(s) for s in suffixes) + ")"


@dataclass(frozen=True)
class RuleVerdict:
    name: str
    lhs_map: MoveMap
    rhs_map: MoveMap
    verdict: Ordering
    witness_wire: int | None

    @property
    def strict(self) -> bool:
        return self.verdict is Ordering.GREATER

    def line(self) -> str:
        if self.strict:
            i = self.witness_wire
            assert i is not None
            return (
                f"RULE {self.name}: STRICT "
                f"{_fmt_vector(self.lhs_map.suffixes)} > {_fmt_vector(self.rhs_map.suffixes)} "
                f"witness: {_fmt_word(self.lhs_map.suffixes[i])} > "
                f"{_fmt_word(self.rhs_map.suffixes[i])} at wire {i}"
            )
        return f"RULE {self.name}: NOT STRICT (verdict: {self.verdict.value})"


@dataclass(frozen=True)
class StrictnessReport:
    entries: tuple[RuleVerdict, ...]

    @property
    def all_strict(self) -> bool:
        return all(e.strict for e in self.entries)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]

    def format(self) -> str:
        return "\n".join(self.lines())


def verify_strict(rules: Sequence["Rule"]) -> StrictnessReport:
    """Compare each rule's two sides; never raises, flags instead."""
    entries = []
    for rule in rules:
        lhs_map = measure(rule.lhs)
        rhs_map = measure(rule.rhs)
        verdict = map_compare(lhs_map, rhs_map)
        witness = None
        if verdict is Ordering.GREATER:
            for i, (a, b) in enumerate(zip(lhs_map.suffixes, rhs_map.suffixes)):
                if a != b:
                    witness = i
                    break
        entries.append(RuleVerdict(rule.name, lhs_map, rhs_map, verdict, witness))
    return StrictnessReport(tuple(entries))
