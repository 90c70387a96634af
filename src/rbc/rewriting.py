"""Rewrite rules, matching up to gate reordering, and normalization.

A rule replaces one small circuit by another of the same width, same
boolean function, and strictly smaller measure.  Matching a pattern
inside a host circuit must see through reorderings of disjoint gates:
a match picks host gates realizing the pattern (shifted to a wire
window) such that no unmatched gate is forced to run between two
matched ones.  Under that convexity condition the matched gates can be
brought together, replaced, and the strict measure drop of the rule
carries over to the whole circuit, so repeated rewriting terminates.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

from .diagram import (
    Diagram,
    Gate,
    GateKind,
    canonicalize,
    gates_overlap,
    not_,
    swap,
    t2,
    t3,
    wire_links,
)
from .errors import (
    InvalidRuleError,
    NotDecreasingError,
    StaleMatchError,
    StateLimitExceeded,
    StepLimitExceeded,
    WidthMismatchError,
)
from .measure import measure
from .moves import Ordering, map_compare, total_rank
from .semantics import truth_table


# One pattern slot for the matcher: the gate's kind and window offset,
# then the latest earlier slot sharing a wire with it and which of that
# slot's wires it is (-1, -1 for none).
_Slot = tuple[GateKind, int, int, int]


@dataclass(frozen=True)
class Rule:
    """``lhs`` rewrites to ``rhs``; both sides share one width."""

    name: str
    lhs: Diagram
    rhs: Diagram

    def __post_init__(self) -> None:
        if self.lhs.width != self.rhs.width:
            raise WidthMismatchError(
                f"rule {self.name}: sides have widths "
                f"{self.lhs.width} and {self.rhs.width}"
            )
        self.lhs.validate()
        self.rhs.validate()

    @property
    def width(self) -> int:
        return self.lhs.width

    @functools.cached_property
    def _plans(self) -> tuple[tuple[_Slot, ...], ...]:
        """Each pattern order, with each slot linked to the latest earlier
        slot on one of its wires.

        In a convex match, the host gate of a linked slot is the next host
        gate on that wire after the linked slot's host gate: any gate in
        between would be pinned between two matched gates.  Kept on the
        rule: looking plans up by pattern would hash the pattern on every
        ``find_matches`` call.
        """
        plans = []
        for order in _pattern_orders(self.lhs):
            slots: list[_Slot] = []
            for s, g in enumerate(order):
                link = wire = -1
                for t in range(s - 1, -1, -1):
                    if gates_overlap(order[t], g):
                        link = t
                        wire = max(order[t].offset, g.offset) - order[t].offset
                        break
                slots.append((g.kind, g.offset, link, wire))
            if slots:
                plans.append(tuple(slots))
        return tuple(plans)

    @functools.cached_property
    def _orders(self) -> frozenset[tuple[tuple[GateKind, int], ...]]:
        """Every pattern order as (kind, offset) pairs.  Kept on the rule
        so that checking a match hashes only the selected gates, never
        the pattern."""
        return frozenset(tuple((g.kind, g.offset) for g in order)
                         for order in _pattern_orders(self.lhs))


def validate_rule(rule: Rule) -> None:
    """Check the semantic obligations: equal truth tables and a strict
    measure drop from lhs to rhs."""
    if truth_table(rule.lhs) != truth_table(rule.rhs):
        raise InvalidRuleError(
            f"rule {rule.name}: sides compute different boolean functions"
        )
    verdict = map_compare(measure(rule.lhs), measure(rule.rhs))
    if verdict is not Ordering.GREATER:
        raise NotDecreasingError(
            f"rule {rule.name}: replacement measure compares "
            f"{verdict.value}, expected a strict drop"
        )


def _rule(name: str, width: int, lhs: list[Gate], rhs: list[Gate]) -> Rule:
    return Rule(name, Diagram(width, tuple(lhs)), Diagram(width, tuple(rhs)))


@functools.lru_cache(maxsize=1)
def builtin_rules() -> tuple[Rule, ...]:
    """The full catalog, in match-priority order: cancellations first,
    then the swap identities, then sliding, then the swapped toffoli."""
    rules = (
        _rule("a_not", 1, [not_(0), not_(0)], []),
        _rule("a_t2", 2, [t2(0), t2(0)], []),
        _rule("a_t3", 3, [t3(0), t3(0)], []),
        _rule("p_swap2", 2, [swap(0), swap(0)], []),
        _rule(
            "p_yang_baxter",
            3,
            [swap(0), swap(1), swap(0)],
            [swap(1), swap(0), swap(1)],
        ),
        _rule("s_not_L", 2, [swap(0), not_(0)], [not_(1), swap(0)]),
        _rule("s_not_R", 2, [swap(0), not_(1)], [not_(0), swap(0)]),
        _rule(
            "s_t2_L",
            3,
            [swap(0), swap(1), t2(0)],
            [t2(1), swap(0), swap(1)],
        ),
        _rule(
            "s_t2_R",
            3,
            [swap(1), swap(0), t2(1)],
            [t2(0), swap(1), swap(0)],
        ),
        _rule(
            "s_t3_L",
            4,
            [swap(0), swap(1), swap(2), t3(0)],
            [t3(1), swap(0), swap(1), swap(2)],
        ),
        _rule(
            "s_t3_R",
            4,
            [swap(2), swap(1), swap(0), t3(1)],
            [t3(0), swap(2), swap(1), swap(0)],
        ),
        _rule("t_swapped_t3", 3, [swap(0), t3(0)], [t3(0), swap(0)]),
    )
    for r in rules:
        validate_rule(r)
    return rules


@dataclass(frozen=True)
class Match:
    """One way a rule's pattern occurs in a host circuit.

    ``offset`` is the wire the pattern window starts at; ``indices``
    are host gate positions, ascending, realizing the pattern gates.
    """

    rule: Rule
    offset: int
    indices: tuple[int, ...]

    @property
    def rule_name(self) -> str:
        return self.rule.name


def _pattern_orders(lhs: Diagram) -> tuple[tuple[Gate, ...], ...]:
    """Every gate order the pattern can appear in, deduplicated."""
    gates = lhs.gates
    n = len(gates)
    if n == 0:
        return ((),)
    preds = [0] * n
    for j in range(n):
        for i in range(j):
            if gates_overlap(gates[i], gates[j]):
                preds[j] |= 1 << i
    out: set[tuple[Gate, ...]] = set()
    acc: list[Gate] = []

    def rec(remaining: int) -> None:
        if remaining == 0:
            out.add(tuple(acc))
            return
        m = remaining
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if preds[i] & remaining == 0:
                acc.append(gates[i])
                rec(remaining ^ (1 << i))
                acc.pop()

    rec((1 << n) - 1)
    return tuple(sorted(out, key=lambda t: [g.sort_key() for g in t]))


# The dependency structure of one diagram, (gates, pred, before, succ):
# the wire links both ways and the ancestor masks, from one forward pass.
_Host = tuple[tuple[Gate, ...], list[int], list[int], list[int]]

# (diagram, its structure) for the last diagram matched or rewritten, so
# that matching a diagram and applying matches to that same diagram build
# the structure once.  Keyed on identity, never on equality, and replaced
# by one assignment, so a diagram is never paired with another diagram's
# structure; it holds one entry, however long a reduction runs.
_host_memo: tuple = (None, None)

# (rule tuple, its start table), the same way: normalize and the search
# pass one rule tuple to every call.
_starts_memo: tuple = (None, None)


def _host(d: Diagram) -> _Host:
    """The dependency structure of d, rebuilt unless d is the diagram
    object the last one was built for."""
    global _host_memo
    memo = _host_memo
    if memo[0] is d:
        return memo[1]
    succ, pred, before = wire_links(d)
    host = (d.gates, pred, before, succ)
    _host_memo = (d, host)
    return host


def _start_table(rules: tuple[Rule, ...]) -> dict:
    """Every plan of the catalog grouped by the kind of its first slot,
    in catalog order, as (rule index, rule width, first offset, second
    slot's kind, offset and wire on the first slot (-1 when it is not
    linked to it), plan)."""
    global _starts_memo
    memo = _starts_memo
    if memo[0] is rules:
        return memo[1]
    table: dict[GateKind, list] = {}
    for ri, rule in enumerate(rules):
        for plan in rule._plans:
            kind1, offset1, _, wire1 = plan[1] if len(plan) > 1 else (None, 0, -1, -1)
            table.setdefault(plan[0][0], []).append(
                (ri, rule.width, plan[0][1], kind1, offset1, wire1, plan))
    _starts_memo = (rules, table)
    return table


def _pins(pred: list[int], before: list[int], c: int, smask: int) -> bool:
    """True when some wire predecessor of gate c lies outside smask and
    has an ancestor in smask."""
    for p in pred[3 * c:3 * c + 3]:
        if p >= 0 and before[p] & smask and not smask >> p & 1:
            return True
    return False


def _extend(host, plan, k, chosen, smask, found, ri) -> None:
    """Fill the slots of plan after the host gates in chosen, appending
    each convex completion to found; smask is the mask of chosen.

    Every slot takes a gate c above all chosen indices, so convexity is
    checked from c's wire predecessors alone (``_pins``): adding c to a
    convex set S pins a gate if and only if some predecessor p of c has
    p not in S and an ancestor in S.  Proof: on a path from S to c
    through an unmatched gate, the last gate before c is a predecessor
    of c; if it is in S, the pinned gate already sat between two gates
    of S, otherwise it is an unmatched predecessor with an ancestor in S.
    """
    gates, pred, before, succ = host
    for slot in range(len(chosen), len(plan)):
        kind, offset, link, wire = plan[slot]
        if link < 0:
            for c in range(chosen[-1] + 1, len(gates)):
                g = gates[c]
                if (g.kind is kind and g.offset == offset + k
                        and not _pins(pred, before, c, smask)):
                    _extend(host, plan, k, chosen + (c,), smask | 1 << c, found, ri)
            return
        c = succ[3 * chosen[link] + wire]
        if c <= chosen[-1]:
            return
        g = gates[c]
        if g.kind is not kind or g.offset != offset + k:
            return
        # A pinned gate lies below c, so no later slot can take it in.
        if _pins(pred, before, c, smask):
            return
        chosen += (c,)
        smask |= 1 << c
    found.append((chosen[0], k, ri, chosen))


def _matches_at(host: _Host, width: int, table: dict, i0: int, found: list) -> None:
    """Append to found every match whose first host gate is i0, as
    (i0, window offset, rule index, indices)."""
    gates, _, _, succ = host
    g0 = gates[i0]
    for ri, rw, offset0, kind1, offset1, wire1, plan in table.get(g0.kind, ()):
        k = g0.offset - offset0
        if k < 0 or k + rw > width:
            continue
        # Most starts fail at the second slot when it is linked to the
        # first; test that here, before paying for a call.
        if wire1 >= 0:
            c = succ[3 * i0 + wire1]
            if c < 0:
                continue
            g = gates[c]
            if g.kind is not kind1 or g.offset != offset1 + k:
                continue
        _extend(host, plan, k, (i0,), 1 << i0, found, ri)


def find_matches(d: Diagram, rules: tuple[Rule, ...] | None = None) -> list[Match]:
    """All occurrences of the rules in d, in the order of the key (first
    matched gate, window offset, rule position in the catalog, indices);
    ``first_match`` returns the least of them.  ``rules`` may be any
    sequence; it is read as a tuple of its rules at the time of the call."""
    rules = builtin_rules() if rules is None else tuple(rules)
    host = _host(d)
    table = _start_table(rules)
    found: list[tuple[int, int, int, tuple[int, ...]]] = []
    for i0 in range(len(d.gates)):
        _matches_at(host, d.width, table, i0, found)
    found.sort()
    return [Match(rules[ri], k, idx) for _, k, ri, idx in found]


def first_match(d: Diagram, rules: tuple[Rule, ...] | None = None) -> Match | None:
    """The first match of ``find_matches(d, rules)``, or None when there
    is none.

    Every match's indices ascend, so its first matched gate is its least
    index: the scan goes through the host gates in order, and the least
    key among the matches that start at the first gate starting any
    match is the least key overall.  Later gates are never scanned.
    """
    rules = builtin_rules() if rules is None else tuple(rules)
    host = _host(d)
    table = _start_table(rules)
    found: list[tuple[int, int, int, tuple[int, ...]]] = []
    for i0 in range(len(d.gates)):
        _matches_at(host, d.width, table, i0, found)
        if found:
            _, k, ri, idx = min(found)
            return Match(rules[ri], k, idx)
    return None


def _validate_match(d: Diagram, m: Match) -> tuple[int, int]:
    """Check m against d: the pattern length, indices ascending and in
    range, the window, that the selected gates spell an order of the
    pattern, and convexity, re-checked against the dependency structure
    built for this exact diagram object (by whichever of matching or
    applying reached it first).  Returns the mask of the matched gates
    and the mask of the gates that must run before some matched gate.

    Convexity is checked index by index, in ascending order, from each
    matched gate's wire predecessors: adding a gate c above every index
    of a set S pins a gate if and only if S pinned one already, or some
    predecessor p of c has p not in S and an ancestor in S.  Proof: on a
    path from S to c through an unmatched gate, the last gate before c
    is a predecessor of c; if it is in S, the pinned gate already sat
    between two gates of S, otherwise it is an unmatched predecessor
    with an ancestor in S.
    """
    gates = d.gates
    n = len(gates)
    idx = m.indices
    if len(idx) != len(m.rule.lhs.gates):
        raise StaleMatchError(f"match selects {len(idx)} gates, pattern has "
                              f"{len(m.rule.lhs.gates)}")
    if any(i < 0 or i >= n for i in idx) or list(idx) != sorted(set(idx)):
        raise StaleMatchError(f"gate indices {idx} not ascending within 0..{n - 1}")
    if m.offset < 0 or m.offset + m.rule.width > d.width:
        raise StaleMatchError(f"window at {m.offset} falls outside width {d.width}")
    picked = tuple((gates[i].kind, gates[i].offset - m.offset) for i in idx)
    if picked not in m.rule._orders:
        raise StaleMatchError("selected gates no longer spell the pattern")
    _, pred, before, _ = _host(d)
    smask = anc = 0
    for i in idx:
        if _pins(pred, before, i, smask):
            raise StaleMatchError("an unmatched gate is pinned between matched gates")
        smask |= 1 << i
        anc |= before[i]
    return smask, anc


def apply_match(d: Diagram, m: Match) -> Diagram:
    """Replace the matched gates by the rule's replacement.

    Unmatched gates that must run before some matched gate stay in
    front of the replacement; everything else follows it.  No gate after
    the last matched one runs before a matched gate, so only the gates
    below it are sorted into front and back.  The result is
    canonicalized.
    """
    smask, anc = _validate_match(d, m)
    gates = d.gates
    stop = m.indices[-1] + 1 if m.indices else 0
    front: list[Gate] = []
    back: list[Gate] = []
    for i in range(stop):
        if smask >> i & 1:
            continue
        if anc >> i & 1:
            front.append(gates[i])
        else:
            back.append(gates[i])
    middle = [g.shifted(m.offset) for g in m.rule.rhs.gates]
    return canonicalize(Diagram(d.width, tuple(front + middle + back) + gates[stop:]))


@dataclass(frozen=True)
class ReductionStep:
    match: Match
    before: Diagram
    after: Diagram

    @property
    def rule_name(self) -> str:
        return self.match.rule.name


@dataclass(frozen=True)
class ReductionTrace:
    initial: Diagram
    steps: tuple[ReductionStep, ...] = field(default=())

    def __post_init__(self) -> None:
        prev = self.initial
        for i, s in enumerate(self.steps):
            if s.before != prev:
                raise ValueError(f"trace breaks at step {i}: steps do not chain")
            prev = s.after

    @property
    def final(self) -> Diagram:
        return self.steps[-1].after if self.steps else self.initial

    def lines(self) -> list[str]:
        # Each step starts where the previous one ended: one measure per
        # circuit, the initial one first.
        circuits = [self.initial] + [s.after for s in self.steps]
        ranks = [total_rank(measure(x)) for x in circuits]
        out = []
        for i, s in enumerate(self.steps):
            idx = ",".join(str(j) for j in s.match.indices)
            out.append(
                f"step {i + 1}: {s.rule_name} @ wires[{s.match.offset}] "
                f"gates[{idx}] rank {ranks[i]} -> {ranks[i + 1]}"
            )
        return out


def default_step_cap(d: Diagram) -> int:
    """10 x gates x rank: a guard against implementation bugs only.

    Every rule strictly lowers the measure, so a correct catalog never
    reaches it; rank grows exponentially with word length, so the cap is
    far above any real reduction.  It is never below 10 x gates**2,
    because each gate stamps at least one letter and a word's rank is at
    least its length.
    """
    return 10 * max(1, len(d.gates)) * max(1, total_rank(measure(d)))


def normalize(
    d: Diagram,
    rules: tuple[Rule, ...] | None = None,
    max_steps: int | None = None,
) -> tuple[Diagram, ReductionTrace]:
    """Apply the first available match (``first_match``) until none
    remains.

    Termination is guaranteed by the strict measure drop of every rule;
    the step cap only guards against implementation bugs.  Without
    ``max_steps`` the cap is ``default_step_cap`` of the input, computed
    only once the step count reaches 10 x gates**2, its lower bound, so
    a reduction that ends sooner never pays for the input's measure.
    """
    rules = builtin_rules() if rules is None else tuple(rules)
    current = canonicalize(d)
    initial = current
    cap = max_steps
    lazy_from = 10 * max(1, len(initial.gates)) ** 2
    steps: list[ReductionStep] = []
    while True:
        m = first_match(current, rules)
        if m is None:
            break
        if cap is None and len(steps) >= lazy_from:
            cap = default_step_cap(initial)
        if cap is not None and len(steps) >= cap:
            raise StepLimitExceeded(f"no normal form within {cap} steps")
        nxt = apply_match(current, m)
        steps.append(ReductionStep(m, current, nxt))
        current = nxt
    return current, ReductionTrace(initial, tuple(steps))


def all_normal_forms(
    d: Diagram,
    max_states: int = 10000,
    rules: tuple[Rule, ...] | None = None,
) -> set[Diagram]:
    """Every normal form reachable from d, by exhaustive search over
    canonical circuits."""
    rules = builtin_rules() if rules is None else tuple(rules)
    start = canonicalize(d)
    seen = {start}
    queue = deque([start])
    normal: set[Diagram] = set()
    while queue:
        cur = queue.popleft()
        ms = find_matches(cur, rules)
        if not ms:
            normal.add(cur)
            continue
        for m in ms:
            nxt = apply_match(cur, m)
            size = len(seen)
            seen.add(nxt)  # hashes nxt once; the size tells whether it is new
            if len(seen) > size:
                if size >= max_states:
                    raise StateLimitExceeded(
                        f"more than {max_states} circuits reached"
                    )
                queue.append(nxt)
    return normal


@dataclass(frozen=True)
class StepCheck:
    rule_name: str
    semantics_ok: bool
    measure_verdict: Ordering
    rank_before: int
    rank_after: int

    @property
    def ok(self) -> bool:
        return (
            self.semantics_ok
            and self.measure_verdict is Ordering.LESS
            and self.rank_after < self.rank_before
        )


@dataclass(frozen=True)
class TraceReport:
    checks: tuple[StepCheck, ...]
    ranks: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for i, c in enumerate(self.checks):
            sem = "ok" if c.semantics_ok else "FAIL"
            mea = "ok" if c.measure_verdict is Ordering.LESS else "FAIL"
            out.append(
                f"verify step {i + 1}: {c.rule_name} semantics={sem} "
                f"measure={mea} rank {c.rank_before} -> {c.rank_after}"
            )
        out.append("ranks: " + " -> ".join(str(r) for r in self.ranks))
        out.append("verify: " + ("PASS" if self.ok else "FAIL"))
        return out


def verify_trace(trace: ReductionTrace) -> TraceReport:
    """Independently re-check a reduction: boolean function preserved
    and measure strictly dropped at every step.

    A step's circuit before the rewrite is the previous step's circuit
    after it (``ReductionTrace`` checks that they are equal), so each
    circuit's table, measure and rank are computed once.  A trace with
    no steps needs no table, so it passes at any width."""
    checks = []
    tb = truth_table(trace.initial) if trace.steps else None
    mb = measure(trace.initial)
    ranks = [total_rank(mb)]
    for s in trace.steps:
        ta, ma = truth_table(s.after), measure(s.after)
        ranks.append(total_rank(ma))
        checks.append(StepCheck(s.rule_name, ta == tb, map_compare(ma, mb),
                                ranks[-2], ranks[-1]))
        tb, mb = ta, ma
    return TraceReport(tuple(checks), tuple(ranks))
