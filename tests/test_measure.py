from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbc.diagram import (
    Diagram,
    Gate,
    GateKind,
    canonicalize,
    compose_par,
    compose_seq,
    swap,
    t3,
)
from rbc.errors import NotDecreasingError
from rbc.measure import (
    gate_measure,
    measure,
    rule_measure,
    verify_strict,
)
from rbc.moves import MoveMap, Ordering, map_compare
from rbc.rewriting import Rule, builtin_rules

from .oracles import oracle_measure, oracle_src_permutation
from .strategies import diagram_pairs, diagrams, shuffles


def test_gate_measures():
    assert gate_measure(GateKind.SWAP) == MoveMap((1, 0), ("l", "r"))
    assert gate_measure(GateKind.NOT) == MoveMap((0,), ("t",))
    assert gate_measure(GateKind.T2) == MoveMap((0, 1), ("t", "t"))
    assert gate_measure(GateKind.T3) == MoveMap((0, 1, 2), ("t", "t", "t"))


def test_measure_of_empty_is_identity():
    m = measure(Diagram(3, ()))
    assert m.src == (0, 1, 2)
    assert m.suffixes == ("", "", "")


def test_measure_swap_ladder():
    d = Diagram(3, (swap(0), swap(1), swap(0)))
    m = measure(d)
    assert m.src == (2, 1, 0)
    assert m.suffixes == ("ll", "lr", "rr")


def test_measure_swap_ladder_other_bracketing():
    d = Diagram(3, (swap(1), swap(0), swap(1)))
    m = measure(d)
    assert m.src == (2, 1, 0)
    assert m.suffixes == ("ll", "rl", "rr")


def test_measure_routing_tracks_swaps():
    d = Diagram(4, (swap(0), swap(1), swap(2), t3(0)))
    m = measure(d)
    assert m.src == (1, 2, 3, 0)
    assert m.suffixes == ("lt", "lt", "lt", "rrr")


def test_rule_measure_is_a_step():
    for rule in builtin_rules():
        step = rule_measure(rule)
        assert step.before == measure(rule.lhs)
        assert step.after == measure(rule.rhs)
        assert step.is_strict


def test_rule_measure_rejects_increasing_rule():
    # Yang-Baxter reversed; a_not reversed is refused by Rule itself,
    # since its replacement touches a wire its empty pattern leaves alone.
    ok = next(r for r in builtin_rules() if r.name == "p_yang_baxter")
    backwards = Rule("backwards", ok.rhs, ok.lhs)
    with pytest.raises(NotDecreasingError):
        rule_measure(backwards)


def test_verify_strict_accepts_builtin_catalog():
    report = verify_strict(builtin_rules())
    assert report.all_strict
    assert len(report.entries) == 12
    by_name = {e.name: e for e in report.entries}
    yb = by_name["p_yang_baxter"]
    assert yb.lhs_map.suffixes == ("ll", "lr", "rr")
    assert yb.rhs_map.suffixes == ("ll", "rl", "rr")
    assert yb.witness_wire == 1
    assert "STRICT" in yb.line()


def test_verify_strict_flags_backwards_rule():
    ok = next(r for r in builtin_rules() if r.name == "p_yang_baxter")
    backwards = Rule("backwards", ok.rhs, ok.lhs)
    report = verify_strict([backwards])
    assert not report.all_strict
    entry = report.entries[0]
    assert entry.verdict is Ordering.LESS
    assert not entry.strict
    assert "NOT STRICT" in entry.line()


def test_verify_strict_flags_identity_rule():
    d = Diagram(2, (swap(0),))
    same = Rule("same", d, d)
    report = verify_strict([same])
    assert not report.all_strict
    assert report.entries[0].verdict is Ordering.EQUAL


@settings(max_examples=60, deadline=None)
@given(diagram_pairs())
def test_measure_functorial_for_sequencing(pair):
    d1, d2 = pair
    assert measure(compose_seq(d1, d2)) == _seq_of_measures(d1, d2)


def _seq_of_measures(d1, d2):
    from rbc.moves import map_seq

    return map_seq(measure(d1), measure(d2))


@settings(max_examples=60, deadline=None)
@given(diagrams(max_width=3, max_gates=5), diagrams(max_width=3, max_gates=5))
def test_measure_functorial_for_stacking(d1, d2):
    from rbc.moves import map_par

    assert measure(compose_par(d1, d2)) == map_par(measure(d1), measure(d2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_measure_invariant_under_exchange(data):
    d = data.draw(diagrams())
    shuffled = data.draw(shuffles(d))
    assert measure(shuffled) == measure(d)


@settings(max_examples=60, deadline=None)
@given(diagrams())
def test_measure_invariant_under_canonicalize(d):
    assert measure(canonicalize(d)) == measure(d)


@settings(max_examples=60, deadline=None)
@given(diagrams())
def test_measure_routing_matches_wire_tracing(d):
    assert measure(d).src == oracle_src_permutation(d)


@settings(max_examples=40, deadline=None)
@given(diagram_pairs(max_gates=5))
def test_sequencing_never_shrinks_measure(pair):
    """Appending gates can only pad suffixes, never erase letters."""
    d1, d2 = pair
    from rbc.moves import total_rank

    whole = measure(compose_seq(d1, d2))
    lone = measure(d1)
    assert total_rank(whole) >= total_rank(lone)
    if whole.src == lone.src:
        # routing untouched, so dominance applies wire by wire
        assert map_compare(lone, whole) in (Ordering.LESS, Ordering.EQUAL)


@pytest.mark.parametrize("width,count", [(16, 120), (24, 800)])
def test_measure_equals_map_chain_oracle(width, count):
    """The direct fold against chaining one padded map per gate, on
    seeded circuits far larger than the property tests draw."""
    rng = random.Random(width * 1000 + count)
    kinds = list(GateKind)
    for _ in range(3):
        gates = []
        for _ in range(count):
            kind = rng.choice(kinds)
            gates.append(Gate(kind, rng.randint(0, width - kind.arity)))
        d = Diagram(width, tuple(gates))
        assert measure(d) == oracle_measure(d)


@settings(max_examples=60, deadline=None)
@given(diagrams())
def test_measure_equals_map_chain_oracle_small(d):
    assert measure(d) == oracle_measure(d)
