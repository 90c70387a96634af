from __future__ import annotations

import pytest
from hypothesis import given, settings

from rbc.diagram import Diagram, not_, swap, t2, t3
from rbc.errors import ParseError
from rbc.files import format_circuit, format_rules, parse_circuit, parse_rules
from rbc.rewriting import builtin_rules

from .strategies import diagrams

SAMPLE = """\
# a toffoli behind a swap ladder
wires 4

t3 0
swap 2   # spectator
swap 1
swap 0
t3 1
"""


def test_parse_circuit_sample():
    d = parse_circuit(SAMPLE)
    assert d == Diagram(4, (t3(0), swap(2), swap(1), swap(0), t3(1)))


def test_parse_ignores_comments_and_blanks():
    assert parse_circuit("wires 1\n\n# nothing\nnot 0\n") == Diagram(1, (not_(0),))
    assert parse_circuit("  wires 0  ") == Diagram(0, ())


def test_format_circuit_layout():
    d = Diagram(3, (swap(1), t2(0)))
    assert format_circuit(d) == "wires 3\nswap 1\nt2 0"


@settings(max_examples=60, deadline=None)
@given(diagrams())
def test_circuit_round_trip(d):
    assert parse_circuit(format_circuit(d)) == d


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_circuit("wires 2\nt3 0\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_circuit("# only a comment\nwires 2\n\nswap 0\nswap 9\n")
    assert e.value.line == 5

    with pytest.raises(ParseError) as e:
        parse_circuit("swap 0\n")
    assert "wires" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_circuit("")
    assert str(e.value).startswith("line 1:")

    with pytest.raises(ParseError) as e:
        parse_circuit("wires 2\nfredkin 0\n")
    assert e.value.line == 2 and "unknown gate" in e.value.message

    with pytest.raises(ParseError) as e:
        parse_circuit("wires 2\nswap zero\n")
    assert "not an integer" in e.value.message

    with pytest.raises(ParseError):
        parse_circuit("wires -1\n")

    with pytest.raises(ParseError):
        parse_circuit("wires 2\nswap 0 0\n")


def test_rules_round_trip():
    rules = builtin_rules()
    again = parse_rules(format_rules(rules))
    assert [(r.name, r.lhs, r.rhs) for r in again] == [
        (r.name, r.lhs, r.rhs) for r in rules
    ]


def test_parse_rules_single_block():
    text = """
    rule drop_double_swap
    wires 2
    swap 0
    swap 0
    =>
    """
    (r,) = parse_rules(text)
    assert r.name == "drop_double_swap"
    assert r.lhs == Diagram(2, (swap(0), swap(0)))
    assert r.rhs == Diagram(2, ())


def test_parse_rules_rejects_bad_blocks():
    with pytest.raises(ParseError):
        parse_rules("")  # no rules at all

    with pytest.raises(ParseError) as e:
        parse_rules("rule x\nwires 2\nswap 0\nswap 0\n")  # missing =>
    assert "=>" in e.value.message

    with pytest.raises(ParseError):
        parse_rules("rule x\nswap 0\n=>\n")  # gates before wires

    with pytest.raises(ParseError):
        parse_rules("wires 2\nswap 0\n=>\n")  # gates before any rule line

    with pytest.raises(ParseError):
        parse_rules("rule x\nwires 2\nswap 0\n=>\n=>\n")  # two separators


def test_parse_rules_rejects_semantic_nonsense():
    # sides compute different functions
    bad = "rule x\nwires 1\nnot 0\n=>\n"
    with pytest.raises(ParseError) as e:
        parse_rules(bad)
    assert "different boolean functions" in e.value.message

    # function agrees but the measure goes up
    backwards = "rule x\nwires 3\nswap 1\nswap 0\nswap 1\n=>\nswap 0\nswap 1\nswap 0\n"
    with pytest.raises(ParseError) as e:
        parse_rules(backwards)
    assert "strict drop" in e.value.message


def test_parse_rules_reports_offending_block_start():
    two = (
        "rule fine\nwires 1\nnot 0\nnot 0\n=>\n\n"
        "rule broken\nwires 1\nnot 0\n=>\n"
    )
    with pytest.raises(ParseError) as e:
        parse_rules(two)
    assert e.value.line == 7


def test_parse_rules_rejects_duplicate_names():
    twice = (
        "rule drop\nwires 1\nnot 0\nnot 0\n=>\n\n"
        "# the same name again\n"
        "rule drop\nwires 2\nswap 0\nswap 0\n=>\n"
    )
    with pytest.raises(ParseError) as e:
        parse_rules(twice)
    assert e.value.line == 8
    assert 'rule "drop" is already defined at line 1' in e.value.message
