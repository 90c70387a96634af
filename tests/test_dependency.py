"""The per-wire dependency structure against the quadratic oracles.

Seeded circuits here are far too large for the all-reorderings oracle
(w16 with 120 gates, w24 with 200 gates), so the fast closure, layering,
matcher and normalizer are compared for exact equality with the
pairwise-overlap implementations in ``oracles.py``.  The matcher and
``apply_match`` share one structure per diagram object, so the last tests
interleave calls on several diagrams and check every result against the
oracles on the diagram each call was given.  Convexity is checked from
predecessor links alone; a test runs that check on every small subset of
small circuits against the closure-based oracle.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbc.diagram import (
    Diagram,
    Gate,
    GateKind,
    canonicalize,
    dependency_closure,
    layers,
    not_,
    swap,
    t2,
    t3,
    wire_links,
)
from rbc.errors import StaleMatchError
from rbc.rewriting import (
    Match,
    Rule,
    _pins,
    apply_match,
    builtin_rules,
    find_matches,
    first_match,
    normalize,
)
from rbc.sampling import random_diagram

from .oracles import (
    oracle_apply,
    oracle_canonicalize,
    oracle_dependency_closure,
    oracle_find_matches,
    oracle_is_convex,
    oracle_layers,
    oracle_matches,
    oracle_normalize,
)
from .strategies import diagrams

SIZES = [(16, 120), (24, 200)]

# Patterns with two source gates each, whose walks need a scan step (a
# part sharing no wire with the rest) or a previous-gate step, so the
# matcher does more than follow next-gate links.  Only matching is
# exercised; these are not valid rewrite rules.
LOOSE_RULES = (
    Rule("two_nots", Diagram(3, (not_(0), not_(2))), Diagram(3, ())),
    Rule("bridge", Diagram(3, (swap(0), not_(2), swap(0))), Diagram(3, ())),
    Rule("fan", Diagram(3, (t2(1), not_(0), swap(0))), Diagram(3, ())),
    Rule("wide", Diagram(4, (t3(0), not_(3), swap(2))), Diagram(4, ())),
)


def _large(seed: int, per_size: int) -> list[Diagram]:
    """per_size circuits of exactly each of SIZES."""
    out = []
    for width, count in SIZES:
        rng = random.Random(f"{seed}:{width}")
        for _ in range(per_size):
            kinds = [rng.choice(list(GateKind)) for _ in range(count)]
            gates = tuple(Gate(k, rng.randint(0, width - k.arity)) for k in kinds)
            out.append(Diagram(width, gates))
    return out


def _match_tuples(d, rules):
    return [(m.rule_name, m.offset, m.indices) for m in find_matches(d, rules)]


@pytest.mark.parametrize("d", _large(2001, 4), ids=lambda d: f"w{d.width}")
def test_closure_and_layers_equal_oracles_on_large_circuits(d):
    after = dependency_closure(d)
    assert after == oracle_dependency_closure(d)
    assert layers(d) == oracle_layers(d)
    assert canonicalize(d) == oracle_canonicalize(d)
    succ, pred, before = wire_links(d)
    n = len(d.gates)
    for j in range(n):
        assert before[j] == sum(1 << i for i in range(n) if after[i] >> j & 1)
    for i, g in enumerate(d.gates):
        for r in range(3):
            w = g.offset + r
            later = [j for j in range(i + 1, n) if w in d.gates[j].support]
            want = later[0] if later and r < g.arity else -1
            assert succ[3 * i + r] == want
            earlier = [j for j in range(i) if w in d.gates[j].support]
            want = earlier[-1] if earlier and r < g.arity else -1
            assert pred[3 * i + r] == want


def _convex_by_links(pred, before, indices):
    """The matcher's convexity check: each index, in ascending order,
    against the set of the ones before it."""
    smask = 0
    for i in indices:
        if _pins(pred, before, i, smask):
            return False
        smask |= 1 << i
    return True


def test_convexity_from_links_equals_closure_oracle_on_every_small_subset():
    rng = random.Random(2009)
    checked = convex = 0
    for _ in range(120):
        d = random_diagram(rng, max_width=6, max_gates=12)
        n = len(d.gates)
        reach = oracle_dependency_closure(d)
        _, pred, before = wire_links(d)
        for size in range(1, 5):
            for indices in itertools.combinations(range(n), size):
                smask = sum(1 << i for i in indices)
                want = oracle_is_convex(reach, smask, n)
                assert _convex_by_links(pred, before, indices) == want, (d, indices)
                checked += 1
                convex += want
    # both verdicts occur often
    assert checked > 10000 and 0.1 < convex / checked < 0.9


@settings(max_examples=150, deadline=None)
@given(diagrams(min_width=0, max_width=7, max_gates=14))
@example(Diagram(0, ()))
@example(Diagram(3, ()))
@example(Diagram(1, (not_(0),)))
def test_canonical_form_and_layers_equal_oracles(d):
    assert canonicalize(d) == oracle_canonicalize(d)
    assert layers(d) == oracle_layers(d)


def test_every_match_applies_as_the_oracle_on_seeded_circuits():
    """Every match of both catalogs, on circuits where the gates below
    the last matched one include both ancestors of the match, which go
    in front, and unrelated gates, which go behind the replacement."""
    rng = random.Random(2010)
    circuits = _large(2010, 2) + [random_diagram(rng, max_width=6, max_gates=25)
                                  for _ in range(300)]
    applied = unrelated_before = 0
    for d in circuits:
        reach = oracle_dependency_closure(d)
        for rules in (builtin_rules(), LOOSE_RULES):
            for m in find_matches(d, rules):
                _check_apply(d, m)
                applied += 1
                smask = sum(1 << i for i in m.indices)
                unrelated_before += any(
                    not smask >> i & 1 and not reach[i] & smask
                    for i in range(m.indices[-1]))
    assert applied > 1000 and unrelated_before > 100


@pytest.mark.parametrize("d", _large(2002, 3), ids=lambda d: f"w{d.width}")
def test_find_matches_equal_oracle_on_large_circuits(d):
    rules = builtin_rules()
    assert _match_tuples(d, rules) == oracle_find_matches(d, rules)
    assert _match_tuples(d, LOOSE_RULES) == oracle_find_matches(d, LOOSE_RULES)


@pytest.mark.parametrize("d", _large(2003, 1), ids=lambda d: f"w{d.width}")
def test_normalize_trace_equals_oracle_on_large_circuits(d):
    nf, trace = normalize(d)
    want_nf, want_steps = oracle_normalize(d, builtin_rules())
    got = [(s.rule_name, s.match.offset, s.match.indices, s.after) for s in trace.steps]
    assert got == want_steps
    assert nf == want_nf


def test_small_circuits_equal_oracles():
    rules = builtin_rules()
    rng = random.Random(2004)
    for _ in range(200):
        d = random_diagram(rng, max_width=6, max_gates=25)
        assert dependency_closure(d) == oracle_dependency_closure(d)
        assert layers(d) == oracle_layers(d)
        assert _match_tuples(d, rules) == oracle_find_matches(d, rules)
        assert _match_tuples(d, LOOSE_RULES) == oracle_find_matches(d, LOOSE_RULES)


@settings(max_examples=60, deadline=None)
@given(diagrams(min_width=3, max_width=5, max_gates=6))
def test_loose_patterns_agree_with_reordering_oracle(d):
    got = {(m.rule_name, m.offset, frozenset(m.indices))
           for m in find_matches(d, LOOSE_RULES)}
    assert got == oracle_matches(d, LOOSE_RULES)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalize_equals_oracle_on_random_circuits(data):
    d = data.draw(diagrams(max_width=6, max_gates=20))
    nf, trace = normalize(d)
    want_nf, want_steps = oracle_normalize(d, builtin_rules())
    assert [(s.rule_name, s.match.offset, s.match.indices, s.after)
            for s in trace.steps] == want_steps
    assert nf == want_nf


def _first_equals_head(d, rules):
    ms = find_matches(d, rules)
    assert first_match(d, rules) == (ms[0] if ms else None)


@pytest.mark.parametrize("d", _large(2005, 2), ids=lambda d: f"w{d.width}")
def test_first_match_is_head_of_find_matches_on_large_circuits(d):
    _first_equals_head(d, builtin_rules())
    _first_equals_head(d, LOOSE_RULES)


def test_first_match_is_head_of_find_matches_on_small_circuits():
    rng = random.Random(2006)
    for _ in range(200):
        d = random_diagram(rng, max_width=6, max_gates=25)
        _first_equals_head(d, builtin_rules())
        _first_equals_head(d, LOOSE_RULES)
        nf, trace = normalize(d, LOOSE_RULES)
        want_nf, want_steps = oracle_normalize(d, LOOSE_RULES)
        assert [(s.rule_name, s.match.offset, s.match.indices, s.after)
                for s in trace.steps] == want_steps
        assert nf == want_nf


def _check_apply(d, m):
    assert apply_match(d, m) == oracle_apply(d, m.rule, m.offset, m.indices)


def test_interleaved_diagrams_never_share_a_structure():
    rules = builtin_rules()
    a, b = _large(2007, 1)
    a2 = Diagram(a.width, a.gates)
    assert a2 == a and a2 is not a
    c = Diagram(a.width, tuple(reversed(a.gates)))
    assert c != a and len(c.gates) == len(a.gates)
    ms = {}
    for d in (a, b, a2, c, a):
        ms[id(d)] = find_matches(d, rules)
        assert _match_tuples(d, rules) == oracle_find_matches(d, rules)
    for d in (c, a2, b, a, c):
        for m in ms[id(d)][:3] + ms[id(d)][-3:]:
            _check_apply(d, m)
        m = first_match(d, rules)
        _check_apply(a, ms[id(a)][0])
        _check_apply(d, m)
        assert (m.rule_name, m.offset, m.indices) == oracle_find_matches(d, rules)[0]


def test_match_applied_to_another_diagram_is_rechecked():
    """Indices that spell the pattern on another diagram of the same
    width and length, but pin a gate there, are still rejected after
    the first diagram's structure was built."""
    found_on = Diagram(3, (swap(0), not_(2), swap(0)))
    pinned = Diagram(3, (swap(0), not_(1), swap(0)))
    m = next(m for m in find_matches(found_on) if m.rule_name == "p_swap2")
    assert m.indices == (0, 2)
    with pytest.raises(StaleMatchError):
        apply_match(pinned, m)
    first_match(pinned)  # now the structure of pinned has been built
    with pytest.raises(StaleMatchError):
        apply_match(pinned, m)
    _check_apply(found_on, m)


def test_shifted_index_of_a_loose_match_is_rejected():
    """fan and wide are matched through a previous-gate step in each of
    their walks.  Moving one index of a match one gate up or down, often
    onto a copy of the matched gate, gives a stale match unless the
    result is itself a match."""
    rules = tuple(r for r in LOOSE_RULES if r.name in ("fan", "wide"))
    for r in rules:
        assert len(r._walks) == 2
        assert all(any(not forward and a >= 0 for _, _, forward, a, _, _ in walk)
                   for walk in r._walks)
    rng = random.Random(2008)
    shifted = same_gate = 0
    for _ in range(600):
        # mostly pattern gates at random window offsets, so that matches
        # and neighbouring copies of matched gates are common
        r = rng.choice(rules)
        width = rng.randint(r.width, 6)
        gates = [rng.choice(r.lhs.gates).shifted(rng.randint(0, width - r.width))
                 for _ in range(rng.randint(3, 12))]
        d = canonicalize(Diagram(width, tuple(gates)))
        ms = find_matches(d, rules)
        valid = {(m.rule_name, m.offset, m.indices) for m in ms}
        for m in ms:
            for j, i in enumerate(m.indices):
                for c in (i - 1, i + 1):
                    idx = m.indices[:j] + (c,) + m.indices[j + 1:]
                    if (m.rule_name, m.offset, idx) in valid:
                        continue
                    with pytest.raises(StaleMatchError):
                        apply_match(d, Match(m.rule, m.offset, idx))
                    shifted += 1
                    same_gate += 0 <= c < len(d.gates) and d.gates[c] == d.gates[i]
    assert shifted > 600 and same_gate > 50


def test_links_off_the_walk_are_checked():
    """The walk from not 3 reaches t3 1, then t3 0 and swap 0, each by
    one link.  In the host, t3 1 runs before swap 0 on wire 1, which only
    the other links of swap 0 show: the two circuits are not reorderings
    of each other, so the host holds no match."""
    pattern = Diagram(4, (not_(3), t3(0), swap(0), t3(1)))
    r = Rule("crossed", pattern, Diagram(4, ()))
    host = Diagram(4, (not_(3), t3(0), t3(1), swap(0)))
    assert _match_tuples(host, (r,)) == oracle_find_matches(host, (r,)) == []
    assert _match_tuples(pattern, (r,)) == [("crossed", 0, (0, 1, 2, 3))]
    with pytest.raises(StaleMatchError):
        apply_match(host, Match(r, 0, (0, 1, 2, 3)))
