from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbc.diagram import Diagram, Gate, GateKind, identity, not_, swap, t2, t3
from rbc.errors import InputError, WidthMismatchError, WidthTooLargeError
from rbc.rewriting import normalize
from rbc.semantics import (
    TruthTable,
    evaluate,
    identity_table,
    index_to_bits,
    is_permutation,
    truth_table,
)

from .oracles import oracle_apply_gate, oracle_evaluate, oracle_rows
from .strategies import diagrams, shuffles


def test_apply_gate_values():
    assert oracle_apply_gate(GateKind.SWAP, (0, 1)) == (1, 0)
    assert oracle_apply_gate(GateKind.NOT, (0,)) == (1,)
    assert oracle_apply_gate(GateKind.NOT, (1,)) == (0,)
    assert oracle_apply_gate(GateKind.T2, (1, 0)) == (1, 1)
    assert oracle_apply_gate(GateKind.T2, (0, 1)) == (0, 1)
    assert oracle_apply_gate(GateKind.T3, (1, 1, 0)) == (1, 1, 1)
    assert oracle_apply_gate(GateKind.T3, (1, 0, 0)) == (1, 0, 0)


def test_evaluate_swapped_toffoli_both_orders():
    left = Diagram(3, (swap(0), t3(0)))
    right = Diagram(3, (t3(0), swap(0)))
    assert evaluate(left, (0, 1, 1)) == (1, 0, 1)
    assert evaluate(right, (0, 1, 1)) == (1, 0, 1)


def test_evaluate_width_checked():
    with pytest.raises(WidthMismatchError):
        evaluate(identity(3), (0, 1))


@pytest.mark.parametrize("bits", [(2,), (-1,), (3,)])
def test_evaluate_rejects_values_other_than_bits(bits):
    with pytest.raises(InputError):
        evaluate(Diagram(1, (not_(0),)), bits)
    with pytest.raises(InputError):
        evaluate(Diagram(2, (swap(0),)), (0,) + bits)


def test_truth_table_row_order():
    t = truth_table(Diagram(2, (swap(0),)))
    assert t.rows == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_truth_table_lines_wire0_most_significant():
    t = truth_table(Diagram(2, (not_(0),)))
    assert t.lines() == ["00 -> 10", "01 -> 11", "10 -> 00", "11 -> 01"]


def test_truth_table_width_cap():
    with pytest.raises(WidthTooLargeError):
        truth_table(identity(13))
    with pytest.raises(WidthTooLargeError):
        truth_table(identity(3), max_width=2)
    assert truth_table(identity(13), max_width=13).width == 13


def test_width_zero_table():
    t = truth_table(identity(0))
    assert t.rows == ((),)
    assert t.lines() == [" -> "]


def test_index_to_bits():
    assert index_to_bits(6, 3) == (1, 1, 0)
    assert index_to_bits(1, 3) == (0, 0, 1)


@pytest.mark.parametrize("gate,width", [
    (swap(0), 2), (not_(0), 1), (t2(0), 2), (t3(0), 3),
])
def test_generators_self_inverse(gate, width):
    d = Diagram(width, (gate, gate))
    assert truth_table(d) == identity_table(width)


@given(diagrams(max_width=5, max_gates=10))
def test_tables_are_permutations(d):
    assert is_permutation(truth_table(d))


@given(st.data())
def test_equivalent_diagrams_equal_tables(data):
    d = data.draw(diagrams(max_width=5, max_gates=8))
    s = data.draw(shuffles(d))
    assert truth_table(d) == truth_table(s)


@given(diagrams(min_width=1, max_width=4, max_gates=6))
def test_rows_agree_with_evaluate(d):
    t = truth_table(d)
    for i, bits in enumerate(itertools.product((0, 1), repeat=d.width)):
        assert t.rows[i] == evaluate(d, bits)


def test_is_permutation_rejects_collision():
    # One wire reading 0 on both rows: column 0b00.
    assert not is_permutation(TruthTable(1, (0,)))


def test_columns_hold_one_bit_per_row():
    t = truth_table(Diagram(2, (not_(0),)))
    # Rows 00, 01, 10, 11 map to 10, 11, 00, 01: wire 0 reads 1 on rows
    # 0 and 1, wire 1 on rows 1 and 3.
    assert t.columns == (0b0011, 0b1010)
    assert identity_table(2).columns == (0b1100, 0b1010)


def _circuit(rng: random.Random, width: int, count: int) -> Diagram:
    """Exactly count random gates on width wires (none below width 1)."""
    kinds = [k for k in GateKind if k.arity <= width]
    gates = []
    for _ in range(count if kinds else 0):
        kind = rng.choice(kinds)
        gates.append(Gate(kind, rng.randint(0, width - kind.arity)))
    return Diagram(width, tuple(gates))


@pytest.mark.parametrize("width", range(13))
def test_rows_equal_oracle_by_width(width):
    rng = random.Random(width)
    for count in (0, 1, 5, 40):
        d = _circuit(rng, width, count)
        assert truth_table(d).rows == oracle_rows(d)
    assert identity_table(width).rows == oracle_rows(Diagram(width))


def test_rows_equal_oracle_w12_200_gates():
    d = _circuit(random.Random(12), 12, 200)
    assert truth_table(d).rows == oracle_rows(d)


def test_table_equality_agrees_with_oracle():
    """Kernel tables are equal exactly when the row-by-row tables are:
    checked on a circuit against its normal form (equal) and against
    the same circuit with one extra gate (different)."""
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for _ in range(60):
        width = rng.randint(1, 6)
        d = _circuit(rng, width, rng.randint(0, 25))
        nf, _ = normalize(d)
        extra = Diagram(width, d.gates + (_circuit(rng, width, 1).gates))
        for other in (nf, extra):
            same = truth_table(d) == truth_table(other)
            assert same == (oracle_rows(d) == oracle_rows(other))
            seen[same] += 1
    assert seen[True] and seen[False]


def test_evaluate_equals_oracle_past_the_table_cap():
    """``evaluate`` has no width cap: seeded circuits at widths 0 to 64,
    each run on random inputs, against the gate-by-gate oracle."""
    rng = random.Random(64)
    for width in range(65):
        for count in (0, 1, 10, 4 * width):
            d = _circuit(rng, width, count)
            for _ in range(4):
                bits = tuple(rng.randint(0, 1) for _ in range(width))
                out = evaluate(d, bits)
                assert out == oracle_evaluate(d, bits)
                assert all(b in (0, 1) for b in out)
