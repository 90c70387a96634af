"""Brute-force reference implementations used only to check the fast paths.

These deliberately avoid the algorithms under test: reorderings are
enumerated by explicit adjacent transpositions, routing is tracked by
simulating swaps, and map comparison is evaluated pointwise on a finite
word sample and suffix by suffix through ``word_compare``.  The dependency order is rebuilt by pairwise overlap scans
(quadratic in the gate count), independent of the per-wire links, and
the matcher and normalizer built on those scans serve as exact oracles
on circuits too large for the all-reorderings search.  Circuits are
evaluated one input row at a time, each gate rewriting a tuple of bits
(``oracle_evaluate``), truth tables are rebuilt from those rows, and the
measure by chaining each gate's map padded with identities through
``map_seq``, independent of the bit-sliced kernel and the direct fold.
"""

from __future__ import annotations

import itertools

from rbc.diagram import Diagram, Gate, GateKind, commute, gates_overlap
from rbc.measure import gate_measure
from rbc.moves import (
    MoveMap,
    Ordering,
    identity_map,
    map_apply,
    map_par,
    map_seq,
    word_compare,
    word_key,
    word_le,
    word_rank,
)
from rbc.rewriting import Rule, _pattern_orders


def all_index_orders(d: Diagram) -> set[tuple[int, ...]]:
    """Every gate order reachable by swapping adjacent disjoint gates,
    as tuples of original gate indices."""
    start = tuple(range(len(d.gates)))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for i in range(len(cur) - 1):
            if commute(d.gates[cur[i]], d.gates[cur[i + 1]]):
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def all_gate_orders(d: Diagram) -> set[tuple[Gate, ...]]:
    return {tuple(d.gates[i] for i in order) for order in all_index_orders(d)}


def oracle_equivalent(d1: Diagram, d2: Diagram) -> bool:
    if d1.width != d2.width:
        return False
    return tuple(d2.gates) in all_gate_orders(d1)


def oracle_must_precede(d: Diagram, i: int, j: int) -> bool:
    """True when gate i comes before gate j in every reachable order."""
    for order in all_index_orders(d):
        if order.index(i) > order.index(j):
            return False
    return True


def oracle_matches(d: Diagram, rules) -> set[tuple[str, int, frozenset[int]]]:
    """Scan every reachable gate order for each pattern as a contiguous,
    window-aligned run of gates."""
    found = set()
    orders = all_index_orders(d)
    for rule in rules:
        m = len(rule.lhs.gates)
        rw = rule.lhs.width
        if m == 0 or rw > d.width:
            continue
        for order in orders:
            gates = [d.gates[i] for i in order]
            for k in range(d.width - rw + 1):
                for start in range(len(gates) - m + 1):
                    run = gates[start:start + m]
                    if not all(
                        g.offset >= k and g.offset + g.arity <= k + rw
                        for g in run
                    ):
                        continue
                    sub = Diagram(rw, tuple(Gate(g.kind, g.offset - k) for g in run))
                    if oracle_equivalent(sub, rule.lhs):
                        found.add((rule.name, k, frozenset(order[start:start + m])))
    return found


def oracle_src_permutation(d: Diagram) -> tuple[int, ...]:
    """Wire routing computed by simulating swaps only: entry i of the
    result is the input wire that ends up at output i."""
    at = list(range(d.width))
    for g in d.gates:
        if g.kind is GateKind.SWAP:
            at[g.offset], at[g.offset + 1] = at[g.offset + 1], at[g.offset]
    return tuple(at)


def oracle_apply_gate(kind: GateKind, window: tuple[int, ...]) -> tuple[int, ...]:
    """One gate acting on exactly its window of bits."""
    if kind is GateKind.SWAP:
        x, y = window
        return (y, x)
    if kind is GateKind.NOT:
        (x,) = window
        return (1 - x,)
    if kind is GateKind.T2:
        x, c = window
        return (x, c ^ x)
    x, y, c = window
    return (x, y, c ^ (x & y))


def oracle_evaluate(d: Diagram, bits: tuple[int, ...]) -> tuple[int, ...]:
    """d run on one input, gate by gate on a tuple of bits."""
    assert len(bits) == d.width
    state = list(bits)
    for g in d.gates:
        lo, hi = g.offset, g.offset + g.arity
        state[lo:hi] = oracle_apply_gate(g.kind, tuple(state[lo:hi]))
    return tuple(state)


def oracle_rows(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """The truth table row by row: d evaluated on every input, in
    ascending order with wire 0 most significant."""
    return tuple(oracle_evaluate(d, bits)
                 for bits in itertools.product((0, 1), repeat=d.width))


def _padded(g: Gate, width: int) -> MoveMap:
    body = map_par(identity_map(g.offset), gate_measure(g.kind))
    return map_par(body, identity_map(width - g.offset - g.arity))


def oracle_measure(d: Diagram) -> MoveMap:
    """The measure as a chain of full-width maps, one per gate."""
    acc = identity_map(d.width)
    for g in d.gates:
        acc = map_seq(acc, _padded(g, d.width))
    return acc


def _words_upto(max_len: int) -> list[str]:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in "lrt"]
        words.extend(frontier)
    return words


def oracle_map_less(f: MoveMap, g: MoveMap, sample_len: int = 2) -> bool:
    """Pointwise comparison over every input vector built from words of
    length <= sample_len, plus equal routing."""
    if f.n != g.n or f.src != g.src:
        return False
    words = _words_upto(sample_len)
    for xs in itertools.product(words, repeat=f.n):
        fx, gx = map_apply(f, xs), map_apply(g, xs)
        if not all(word_le(a, b) for a, b in zip(fx, gx)):
            return False
        if not any(word_key(a) < word_key(b) for a, b in zip(fx, gx)):
            return False
    return True


def oracle_map_compare(f: MoveMap, g: MoveMap) -> Ordering:
    """The pointwise order with each pair of suffixes compared by
    ``word_compare``, which re-checks every letter."""
    if f == g:
        return Ordering.EQUAL
    if f.src != g.src:
        return Ordering.INCOMPARABLE
    verdicts = {word_compare(a, b) for a, b in zip(f.suffixes, g.suffixes)}
    if Ordering.LESS in verdicts and Ordering.GREATER not in verdicts:
        return Ordering.LESS
    if Ordering.GREATER in verdicts and Ordering.LESS not in verdicts:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def oracle_total_rank(f: MoveMap) -> int:
    """The sum of the suffixes' ranks through ``word_rank``, which
    re-checks every letter."""
    return sum(word_rank(s) for s in f.suffixes)


def oracle_dependency_closure(d: Diagram) -> tuple[int, ...]:
    """Per gate index i, a bitmask of all indices that must run after i,
    by scanning every later gate for overlap."""
    gs = d.gates
    n = len(gs)
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        acc = 0
        for j in range(i + 1, n):
            if gates_overlap(gs[i], gs[j]):
                acc |= (1 << j) | reach[j]
        reach[i] = acc
    return tuple(reach)


def dependency_edges(d: Diagram) -> tuple[tuple[int, int], ...]:
    """Immediate before/after constraints between gate indices.

    There is an edge i -> j when gate i precedes gate j in the list,
    their windows overlap, and no gate between them overlaps both
    (such an intermediate would already force the ordering).
    Reachability along edges is exactly "i runs before j in every
    reordering of the list".
    """
    gs = d.gates
    edges = []
    for j in range(len(gs)):
        for i in range(j):
            if not gates_overlap(gs[i], gs[j]):
                continue
            separated = any(
                gates_overlap(gs[i], gs[k]) and gates_overlap(gs[k], gs[j])
                for k in range(i + 1, j)
            )
            if not separated:
                edges.append((i, j))
    return tuple(edges)


def oracle_layers(d: Diagram) -> tuple[tuple[Gate, ...], ...]:
    """Greedy earliest-layer decomposition, each gate compared with every
    earlier gate."""
    level: list[int] = []
    for i, g in enumerate(d.gates):
        depth = -1
        for j in range(i):
            if level[j] > depth and gates_overlap(d.gates[j], g):
                depth = level[j]
        level.append(depth + 1)
    n_layers = max(level, default=-1) + 1
    buckets: list[list[Gate]] = [[] for _ in range(n_layers)]
    for g, lv in zip(d.gates, level):
        buckets[lv].append(g)
    return tuple(tuple(sorted(b, key=lambda g: g.offset)) for b in buckets)


def oracle_canonicalize(d: Diagram) -> Diagram:
    return Diagram(d.width, tuple(g for layer in oracle_layers(d) for g in layer))


def oracle_is_convex(reach: tuple[int, ...], smask: int, count: int) -> bool:
    """No gate outside smask runs after one gate of smask and before
    another, checked gate by gate."""
    desc = 0
    t = smask
    while t:
        low = t & -t
        desc |= reach[low.bit_length() - 1]
        t ^= low
    for u in range(count):
        if smask >> u & 1:
            continue
        if desc >> u & 1 and reach[u] & smask:
            return False
    return True


def oracle_find_matches(d: Diagram, rules) -> list[tuple[str, int, tuple[int, ...]]]:
    """Every ascending choice of host gates spelling a pattern order,
    kept when convex, as (rule name, offset, indices) in the documented
    order: first matched gate, offset, rule position, indices."""
    gates = d.gates
    n = len(gates)
    reach = oracle_dependency_closure(d)
    found = set()
    for ri, rule in enumerate(rules):
        rw = rule.width
        if rw > d.width:
            continue
        for order in _pattern_orders(rule.lhs):
            if not order:
                continue
            for k in range(d.width - rw + 1):
                want = [(g.kind, g.offset + k) for g in order]
                chosen: list[int] = []

                def rec(slot: int) -> None:
                    if slot == len(want):
                        smask = sum(1 << i for i in chosen)
                        if oracle_is_convex(reach, smask, n):
                            found.add((chosen[0], k, ri, tuple(chosen)))
                        return
                    start = chosen[-1] + 1 if chosen else 0
                    for i in range(start, n):
                        if (gates[i].kind, gates[i].offset) == want[slot]:
                            chosen.append(i)
                            rec(slot + 1)
                            chosen.pop()

                rec(0)
    return [(rules[ri].name, k, idx) for _, k, ri, idx in sorted(found)]


def oracle_apply(d: Diagram, rule: Rule, offset: int,
                 indices: tuple[int, ...]) -> Diagram:
    """Matched gates replaced: unmatched gates that must precede a matched
    one go in front, the rest behind, then the oracle canonical form."""
    reach = oracle_dependency_closure(d)
    smask = sum(1 << i for i in indices)
    front, back = [], []
    for i, g in enumerate(d.gates):
        if smask >> i & 1:
            continue
        (front if reach[i] & smask else back).append(g)
    middle = [g.shifted(offset) for g in rule.rhs.gates]
    return oracle_canonicalize(Diagram(d.width, tuple(front + middle + back)))


def oracle_normalize(d: Diagram, rules) -> tuple[Diagram, list[tuple]]:
    """First-match reduction on the oracle matcher: the normal form and
    one (rule name, offset, indices, result) entry per step."""
    by_name = {r.name: r for r in rules}
    current = oracle_canonicalize(d)
    steps = []
    while True:
        ms = oracle_find_matches(current, rules)
        if not ms:
            return current, steps
        name, k, idx = ms[0]
        current = oracle_apply(current, by_name[name], k, idx)
        steps.append((name, k, idx, current))
