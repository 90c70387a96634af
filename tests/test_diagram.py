from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbc
from rbc.diagram import (
    Diagram,
    GateKind,
    canonicalize,
    compose_par,
    compose_seq,
    dependency_closure,
    equivalent,
    identity,
    layers,
    not_,
    swap,
    t2,
    t3,
)
from rbc.errors import OutOfRangeError, WidthMismatchError

from .oracles import commute, dependency_edges, oracle_equivalent, oracle_must_precede
from .strategies import diagram_pairs, diagrams, diagrams_of, shuffles


def test_unpickled_diagram_and_fresh_one_share_a_set():
    """Hashes are not carried by pickles, so a diagram pickled by another
    interpreter (with other identity hashes) hashes like a fresh one."""
    src = Path(rbc.__file__).resolve().parents[1]
    code = ("import pickle, sys; sys.path.insert(0, sys.argv[1]); "
            "from rbc.diagram import Diagram, not_, swap, t2, t3; "
            "d = Diagram(4, (swap(0), t3(1), not_(3), t2(2), swap(1))); hash(d); "
            "sys.stdout.buffer.write(pickle.dumps(d))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         check=True, timeout=60).stdout
    fresh = Diagram(4, (swap(0), t3(1), not_(3), t2(2), swap(1)))
    for loaded in (pickle.loads(out), pickle.loads(pickle.dumps(fresh))):
        assert loaded == fresh and loaded is not fresh
        assert loaded.gates[0].kind is GateKind.SWAP
        assert loaded in {fresh}
        assert len({fresh, loaded}) == 1


def test_validate_accepts_fitting_gates():
    Diagram(3, (swap(0), swap(1), swap(0))).validate()
    Diagram(0, ()).validate()


def test_validate_rejects_gate_past_width():
    with pytest.raises(OutOfRangeError) as exc:
        Diagram(2, (t3(0),)).validate()
    assert exc.value.gate_index == 0


def test_validate_rejects_swap_on_last_wire():
    with pytest.raises(OutOfRangeError) as exc:
        Diagram(4, (swap(3),)).validate()
    assert exc.value.gate_index == 0


def test_validate_rejects_negative_offset():
    with pytest.raises(OutOfRangeError):
        Diagram(2, (not_(-1),)).validate()


def test_compose_seq_concatenates():
    d = Diagram(2, (swap(0),)) >> Diagram(2, (not_(0),))
    assert d == Diagram(2, (swap(0), not_(0)))


def test_compose_seq_rejects_width_mismatch():
    with pytest.raises(WidthMismatchError):
        compose_seq(identity(2), identity(3))


def test_compose_par_shifts_second_block():
    d = compose_par(Diagram(2, (swap(0),)), Diagram(1, ()))
    assert d == Diagram(3, (swap(0),))
    e = compose_par(Diagram(1, (not_(0),)), Diagram(2, (t2(0),)))
    assert e == Diagram(3, (not_(0), t2(1)))


def test_commute_is_window_disjointness():
    assert commute(swap(0), not_(2))
    assert not commute(swap(0), t2(1))
    assert not commute(t3(0), swap(2))
    assert commute(t3(0), not_(3))


def test_canonicalize_example():
    d = Diagram(3, (not_(2), swap(0), not_(2)))
    assert canonicalize(d).gates == (swap(0), not_(2), not_(2))


def test_canonicalize_keeps_forced_chain():
    d = Diagram(3, (swap(0), swap(1), swap(0)))
    assert canonicalize(d) == d


def test_layers_partition_with_disjoint_supports():
    d = Diagram(4, (not_(3), swap(0), not_(3), t2(2)))
    ls = layers(d)
    assert sum(len(l) for l in ls) == 4
    for layer in ls:
        for i, a in enumerate(layer):
            for b in layer[i + 1:]:
                assert commute(a, b)
                assert a.offset < b.offset


def test_equivalent_examples():
    assert not equivalent(Diagram(2, (swap(0), swap(0))), identity(2))
    assert equivalent(
        Diagram(3, (not_(0), not_(2))), Diagram(3, (not_(2), not_(0)))
    )
    assert not equivalent(identity(2), identity(3))


def test_dependency_edges_chain():
    d = Diagram(3, (swap(0), swap(1), swap(0)))
    assert dependency_edges(d) == ((0, 1), (1, 2))


def test_dependency_edges_skip_separated_pair():
    # first and last overlap, but the middle gate already forces them
    d = Diagram(2, (swap(0), swap(0), swap(0)))
    assert dependency_edges(d) == ((0, 1), (1, 2))


def test_dependency_edges_independent_gates():
    d = Diagram(3, (not_(0), not_(2)))
    assert dependency_edges(d) == ()


@given(diagrams())
def test_canonicalize_idempotent(d):
    c = canonicalize(d)
    assert canonicalize(c) == c


@given(diagrams())
def test_canonicalize_preserves_gate_multiset(d):
    c = canonicalize(d)
    assert sorted(c.gates, key=lambda g: g.sort_key()) == sorted(
        d.gates, key=lambda g: g.sort_key()
    )


@given(st.data())
def test_shuffled_lists_are_equivalent(data):
    d = data.draw(diagrams())
    s = data.draw(shuffles(d))
    assert equivalent(d, s)
    assert canonicalize(d) == canonicalize(s)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalent_agrees_with_reordering_oracle(data):
    d1 = data.draw(diagrams(max_width=4, max_gates=8))
    if data.draw(st.booleans()):
        d2 = data.draw(shuffles(d1))
    else:
        d2 = data.draw(diagrams_of(d1.width, max_gates=8))
    assert equivalent(d1, d2) == oracle_equivalent(d1, d2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dependency_closure_matches_reachability_oracle(data):
    d = data.draw(diagrams(max_width=4, max_gates=5))
    reach = dependency_closure(d)
    n = len(d.gates)
    for i in range(n):
        for j in range(i + 1, n):
            assert bool(reach[i] >> j & 1) == oracle_must_precede(d, i, j)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dependency_edges_reach_equals_closure(data):
    d = data.draw(diagrams(max_width=4, max_gates=6))
    n = len(d.gates)
    adj = [set() for _ in range(n)]
    for i, j in dependency_edges(d):
        adj[i].add(j)
    reach_from_edges = [set() for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in adj[i]:
            reach_from_edges[i] |= {j} | reach_from_edges[j]
    closure = dependency_closure(d)
    for i in range(n):
        assert reach_from_edges[i] == {j for j in range(n) if closure[i] >> j & 1}


@given(diagram_pairs())
def test_equivalence_respected_by_seq(pair):
    d1, d2 = pair
    assert equivalent(d1 >> d2, canonicalize(d1) >> canonicalize(d2))


@given(diagram_pairs(max_width=3, max_gates=4))
def test_equivalence_respected_by_par(pair):
    d1, d2 = pair
    assert equivalent(d1 @ d2, canonicalize(d1) @ canonicalize(d2))


@given(st.data())
def test_seq_associative_and_unital(data):
    d1 = data.draw(diagrams(max_width=4))
    d2 = data.draw(diagrams_of(d1.width, max_gates=5))
    d3 = data.draw(diagrams_of(d1.width, max_gates=5))
    assert (d1 >> d2) >> d3 == d1 >> (d2 >> d3)
    assert identity(d1.width) >> d1 == d1
    assert d1 >> identity(d1.width) == d1


@given(st.data())
def test_par_associative_and_unital(data):
    a = data.draw(diagrams(max_width=3, max_gates=4))
    b = data.draw(diagrams(max_width=3, max_gates=4))
    c = data.draw(diagrams(max_width=3, max_gates=4))
    assert (a @ b) @ c == a @ (b @ c)
    assert identity(0) @ a == a
    assert a @ identity(0) == a


@given(st.data())
def test_exchange_law_up_to_equivalence(data):
    wa = data.draw(st.integers(1, 3))
    wc = data.draw(st.integers(1, 3))
    a = data.draw(diagrams_of(wa, 3))
    b = data.draw(diagrams_of(wa, 3))
    c = data.draw(diagrams_of(wc, 3))
    d = data.draw(diagrams_of(wc, 3))
    assert equivalent((a >> b) @ (c >> d), (a @ c) >> (b @ d))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compose_par_equals_any_interleaving(data):
    a = data.draw(diagrams(min_width=1, max_width=3, max_gates=4))
    b = data.draw(diagrams(min_width=1, max_width=3, max_gates=4))
    stacked = a @ b
    merged = []
    ia = ib = 0
    shifted = [g.shifted(a.width) for g in b.gates]
    while ia < len(a.gates) or ib < len(shifted):
        take_a = ia < len(a.gates) and (
            ib >= len(shifted) or data.draw(st.booleans())
        )
        if take_a:
            merged.append(a.gates[ia])
            ia += 1
        else:
            merged.append(shifted[ib])
            ib += 1
    assert equivalent(stacked, Diagram(stacked.width, tuple(merged)))
