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
from collections.abc import Iterator
from dataclasses import dataclass, field

from .diagram import (
    Diagram,
    Gate,
    GateKind,
    canonicalize,
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


# A link of a pattern gate to a gate reached before it, (forward, earlier
# step, that gate's wire slot): its host gate must be the next (forward)
# or previous host gate on that wire after or before the earlier step's.
_Link = tuple[bool, int, int]
# One step of a pattern walk: the kind and window offset of the pattern
# gate it reaches, the link that finds its host gate, then the other
# links to gates reached before it, which that host gate must satisfy.
# A step without links (earlier step -1) starts a part of the pattern
# that shares no wire with the gates reached so far.
_Step = tuple[GateKind, int, bool, int, int, tuple[_Link, ...]]


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
    def _walks(self) -> tuple[tuple[_Step, ...], ...]:
        """One walk per source gate of the pattern (a gate with no earlier
        gate on its wires), starting there.

        Each step reaches the least pattern gate linked to a gate already
        reached, or, when there is none, the least gate not yet reached.
        In a convex match, the next (previous) host gate on a wire of a
        matched gate is the host gate of the next (previous) pattern gate
        on that wire, when the pattern has one: any gate in between would
        be pinned between two matched gates.  So the linked steps leave
        no choice, and only a part of the pattern that shares no wire
        with the gates reached before it is searched for.
        Source gates share no wire, so there are at most ``width`` walks.
        """
        import heapq  # here, so that start-up, which builds no walk, skips it

        gates = self.lhs.gates
        succ, pred, _ = wire_links(self.lhs)
        walks = []
        for src in range(len(gates)):
            if max(pred[3 * src:3 * src + 3]) >= 0:
                continue
            step_of: dict[int, int] = {}
            steps: list[_Step] = []
            heap = [src]
            unreached = 0
            while len(steps) < len(gates):
                if heap:
                    q = heapq.heappop(heap)
                    if q in step_of:
                        continue
                else:
                    while unreached in step_of:
                        unreached += 1
                    q = unreached
                g = gates[q]
                links: list[_Link] = []
                for r in range(g.kind.arity):
                    for forward, p in ((True, pred[3 * q + r]), (False, succ[3 * q + r])):
                        if p in step_of:
                            links.append((forward, step_of[p], g.offset + r - gates[p].offset))
                        elif p >= 0:
                            heapq.heappush(heap, p)
                step_of[q] = len(steps)
                steps.append((g.kind, g.offset, *(links[0] if links else (True, -1, -1)),
                              tuple(links[1:])))
            walks.append(tuple(steps))
        return tuple(walks)


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
    """Every walk of the catalog grouped by the kind of its start gate,
    in catalog order, as (rule index, rule width, start offset, second
    step's kind, offset and wire on the start gate (-1 when it is not
    linked to it), walk)."""
    global _starts_memo
    memo = _starts_memo
    if memo[0] is rules:
        return memo[1]
    table: dict[GateKind, list] = {}
    for ri, rule in enumerate(rules):
        for walk in rule._walks:
            kind1, offset1, _, _, wire1, _ = walk[1] if len(walk) > 1 else (None, 0, 1, -1, -1, ())
            table.setdefault(walk[0][0], []).append(
                (ri, rule.width, walk[0][1], kind1, offset1, wire1, walk))
    _starts_memo = (rules, table)
    return table


def _pins(pred: list[int], before: list[int], c: int, smask: int) -> bool:
    """True when some wire predecessor of gate c lies outside smask and
    has an ancestor in smask."""
    for p in pred[3 * c:3 * c + 3]:
        if p >= 0 and before[p] & smask and not smask >> p & 1:
            return True
    return False


def _extend(host, walk, k, i0, chosen, found, ri) -> None:
    """Follow the steps of walk after the host gates in chosen, every
    host gate above i0, the start gate's; append each convex completion
    to found as (window offset, rule index, ascending indices).

    Convexity is checked index by index, in ascending order, from each
    gate's wire predecessors (``_pins``): adding a gate c above every
    index of a convex set S pins a gate if and only if some predecessor
    p of c has p not in S and an ancestor in S.  Proof: on a path from S
    to c through an unmatched gate, the last gate before c is a
    predecessor of c; if it is in S, the pinned gate already sat between
    two gates of S, otherwise it is an unmatched predecessor with an
    ancestor in S.
    """
    gates, pred, before, succ = host
    for s in range(len(chosen), len(walk)):
        kind, offset, forward, a, r, checks = walk[s]
        if a < 0:
            for c in range(i0 + 1, len(gates)):
                g = gates[c]
                if g.kind is kind and g.offset == offset + k:
                    _extend(host, walk, k, i0, chosen + (c,), found, ri)
            return
        c = (succ if forward else pred)[3 * chosen[a] + r]
        if c <= i0:
            return
        g = gates[c]
        if g.kind is not kind or g.offset != offset + k:
            return
        for forward, a, r in checks:
            if (succ if forward else pred)[3 * chosen[a] + r] != c:
                return
        chosen += (c,)
    idx = tuple(sorted(chosen))
    smask = 1 << i0
    for c in idx[1:]:
        if _pins(pred, before, c, smask):
            return
        smask |= 1 << c
    found.append((k, ri, idx))


def _matches_at(host: _Host, width: int, table: dict, i0: int, found: list) -> None:
    """Append to found every match whose first host gate is i0, as
    (window offset, rule index, indices)."""
    gates, _, _, succ = host
    g0 = gates[i0]
    for ri, rw, offset0, kind1, offset1, wire1, walk in table.get(g0.kind, ()):
        k = g0.offset - offset0
        if k < 0 or k + rw > width:
            continue
        # Most starts fail at the second step when it is linked to the
        # start; test that here, before paying for a call.
        if wire1 >= 0:
            c = succ[3 * i0 + wire1]
            if c < 0:
                continue
            g = gates[c]
            if g.kind is not kind1 or g.offset != offset1 + k:
                continue
        _extend(host, walk, k, i0, (i0,), found, ri)


def _scan(d: Diagram, rules) -> Iterator[Match]:
    """The matches of the rules in d, host gate by host gate: those whose
    first matched gate is i0, sorted, before any whose first gate is
    above i0.  Every match's indices ascend, so this is the order of
    ``find_matches``, and a caller that stops early never scans the
    later gates.  ``rules`` is read as a tuple of its rules at the first
    step."""
    rules = builtin_rules() if rules is None else tuple(rules)
    host = _host(d)
    table = _start_table(rules)
    found: list[tuple[int, int, tuple[int, ...]]] = []
    for i0 in range(len(d.gates)):
        _matches_at(host, d.width, table, i0, found)
        if found:
            found.sort()
            for k, ri, idx in found:
                yield Match(rules[ri], k, idx)
            found.clear()


def find_matches(d: Diagram, rules: tuple[Rule, ...] | None = None) -> list[Match]:
    """All occurrences of the rules in d, in the order of the key (first
    matched gate, window offset, rule position in the catalog, indices).
    ``rules`` may be any sequence; it is read as a tuple of its rules at
    the time of the call."""
    return list(_scan(d, rules))


def first_match(d: Diagram, rules: tuple[Rule, ...] | None = None) -> Match | None:
    """The first match of ``find_matches(d, rules)``, or None when there
    is none; gates after the first one that starts a match are never
    scanned."""
    return next(_scan(d, rules), None)


def _validate_match(d: Diagram, m: Match) -> tuple[int, int]:
    """Check m against d: indices ascending and in range, the window,
    and that replaying the rule's walks from the first matched gate
    yields exactly these indices, convexity included, on the dependency
    structure built for this exact diagram object (by whichever of
    matching or applying reached it first).  Returns the mask of the
    matched gates and the mask of the gates that must run before some
    matched gate."""
    n = len(d.gates)
    idx = tuple(m.indices)
    if list(idx) != sorted(set(idx)) or not idx or idx[0] < 0 or idx[-1] >= n:
        raise StaleMatchError(f"gate indices {idx} not ascending within 0..{n - 1}")
    if m.offset < 0 or m.offset + m.rule.width > d.width:
        raise StaleMatchError(f"window at {m.offset} falls outside width {d.width}")
    host = _host(d)
    g0 = d.gates[idx[0]]
    found: list[tuple[int, int, tuple[int, ...]]] = []
    for walk in m.rule._walks:
        if walk[0][0] is g0.kind and walk[0][1] + m.offset == g0.offset:
            _extend(host, walk, m.offset, idx[0], idx[:1], found, 0)
    if (m.offset, 0, idx) not in found:
        raise StaleMatchError("selected gates are not a convex occurrence of the pattern")
    before = host[2]
    smask = anc = 0
    for i in idx:
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
    stop = m.indices[-1] + 1
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
