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
from collections.abc import Iterable, Iterator
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
    """``lhs`` rewrites to ``rhs``; both sides share one width, and
    ``rhs`` touches only wires that ``lhs`` touches."""

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
        # So that host gates unrelated to a match commute with the
        # replacement (see ``apply_match``).
        stray = {w for g in self.rhs.gates for w in g.support}.difference(
            *(g.support for g in self.lhs.gates))
        if stray:
            raise InvalidRuleError(f"rule {self.name}: replacement touches wire "
                                   f"{min(stray)}, which the pattern leaves alone")

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
        succ, pred = wire_links(self.lhs)
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

    @functools.cached_property
    def _projections(self) -> list[list[tuple[GateKind, int]]]:
        """The pattern's ``_projections`` on its own window."""
        return _projections(self.lhs.gates, 0, self.width)


def _projections(gates: Iterable[Gate], offset: int,
                 width: int) -> list[list[tuple[GateKind, int]]] | None:
    """Per wire of the window of ``width`` wires at offset, the (kind,
    offset in the window) of each gate touching it, in order, or None
    when a gate leaves the window.

    Two gate lists are reorderings of each other by swapping adjacent
    disjoint gates exactly when their projections are equal: gates that
    share no wire never meet in one projection, and gates that share one
    keep their order in its projection (the projection lemma for traces,
    Cori & Perrin 1985).
    """
    proj: list[list[tuple[GateKind, int]]] = [[] for _ in range(width)]
    for g in gates:
        lo = g.offset - offset
        hi = lo + g.kind.arity
        if lo < 0 or hi > width:
            return None
        letter = (g.kind, lo)
        for w in range(lo, hi):
            proj[w].append(letter)
    return proj


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


# (rule tuple, its start table), keyed on identity and replaced by one
# assignment: normalize and the search pass one rule tuple to every call.
_starts_memo: tuple = (None, None)


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


def _later(gates: tuple[Gate, ...], idx: tuple[int, ...]) -> set[int] | None:
    """The unmatched gates below ``idx[-1]`` that must run after a gate
    of idx (ascending indices), or None when idx is not convex.

    One scan from ``idx[0]`` to ``idx[-1]``, keeping two wire sets as
    bitmasks: the wires reached by the future cone of the gates of idx
    seen so far, and the wires reached by its unmatched gates.  A gate
    on a cone wire is in the cone; a gate of idx on a wire of the second
    kind is pinned between two gates of idx, so idx is not convex.
    Exact: a pinned gate runs before a gate of idx, so it lies below
    ``idx[-1]``, and the cone only grows along the scan.
    """
    cone = pinned = 0
    later: set[int] = set()
    nxt = 0  # position in idx of the next gate of idx
    for i in range(idx[0], idx[-1] + 1):
        g = gates[i]
        wires = ((1 << g.kind.arity) - 1) << g.offset
        if i == idx[nxt]:
            if wires & pinned:
                return None
            cone |= wires
            nxt += 1
        elif wires & cone:
            later.add(i)
            cone |= wires
            pinned |= wires
    return later


def _extend(host, walk, k, chosen, found, ri) -> None:
    """Follow the steps of walk after the host gates in chosen, taking
    only host gates above ``chosen[0]``; append each completion that
    ``_later`` finds convex to found as (window offset, rule index,
    ascending indices).  host is (gates, pred, succ) of ``wire_links``.
    """
    gates, pred, succ = host
    i0 = chosen[0]
    for s in range(len(chosen), len(walk)):
        kind, offset, forward, a, r, checks = walk[s]
        if a < 0:
            for c in range(i0 + 1, len(gates)):
                g = gates[c]
                if g.kind is kind and g.offset == offset + k:
                    _extend(host, walk, k, chosen + (c,), found, ri)
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
    if _later(gates, idx) is not None:
        found.append((k, ri, idx))


def _matches_at(host: tuple, width: int, table: dict, i0: int, found: list) -> None:
    """Append to found every match whose first host gate is i0, as
    (window offset, rule index, indices); host is as in ``_extend``."""
    gates, _, succ = host
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
        _extend(host, walk, k, (i0,), found, ri)


def _scan(d: Diagram, rules) -> Iterator[Match]:
    """The matches of the rules in d, host gate by host gate: those whose
    first matched gate is i0, sorted, before any whose first gate is
    above i0.  Every match's indices ascend, so this is the order of
    ``find_matches``, and a caller that stops early never scans the
    later gates.  ``rules`` is read as a tuple of its rules at the first
    step."""
    rules = builtin_rules() if rules is None else tuple(rules)
    succ, pred = wire_links(d)
    host = (d.gates, pred, succ)
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


def _validate_match(d: Diagram, m: Match) -> set[int]:
    """Check m against d without the matcher: indices ascending and in
    range, the window, the matched gates' per-wire projections against
    the pattern's (see ``_projections``), and convexity.  Returns
    ``_later`` of the indices."""
    n = len(d.gates)
    idx = tuple(m.indices)
    if list(idx) != sorted(set(idx)) or not idx or idx[0] < 0 or idx[-1] >= n:
        raise StaleMatchError(f"gate indices {idx} not ascending within 0..{n - 1}")
    if m.offset < 0 or m.offset + m.rule.width > d.width:
        raise StaleMatchError(f"window at {m.offset} falls outside width {d.width}")
    gates = d.gates
    if _projections([gates[i] for i in idx], m.offset, m.rule.width) != m.rule._projections:
        raise StaleMatchError("selected gates are not a reordering of the pattern")
    later = _later(gates, idx)
    if later is None:
        raise StaleMatchError("selected gates pin an unmatched gate between two of them")
    return later


def apply_match(d: Diagram, m: Match) -> Diagram:
    """Replace the matched gates by the rule's replacement; the result
    is canonicalized.

    m is checked first (``_validate_match``) from d's gates alone, so a
    match found on another diagram, or built by hand, is applied only
    when it is a convex occurrence of its pattern in d.
    Unmatched gates that must run after a matched gate (``_later``)
    follow the replacement and all others precede it, so only the gates
    strictly between the first and the last matched index are sorted.
    Putting only the ancestors of the match in front, and everything
    else behind, gives the same canonical form: a gate related to no
    matched gate shares no wire with the pattern, nor therefore with
    the replacement (``Rule`` checks that), so it commutes with it.
    """
    later = _validate_match(d, m)
    gates = d.gates
    idx = m.indices
    front: list[Gate] = []
    back: list[Gate] = []
    for i in range(idx[0] + 1, idx[-1]):
        if i in later:
            back.append(gates[i])
        elif i not in idx:
            front.append(gates[i])
    middle = [g.shifted(m.offset) for g in m.rule.rhs.gates]
    return canonicalize(Diagram(d.width, gates[:idx[0]] + tuple(front + middle + back)
                                + gates[idx[-1] + 1:]))


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
