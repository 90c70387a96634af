from __future__ import annotations

import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbc import cli, rewriting
from rbc.diagram import Diagram, canonicalize, equivalent, identity, not_, swap, t2, t3
from rbc.errors import (
    InvalidRuleError,
    NotDecreasingError,
    ParseError,
    StaleMatchError,
    StateLimitExceeded,
    StepLimitExceeded,
)
from rbc.files import format_circuit, parse_rules
from rbc.measure import measure
from rbc.moves import Ordering, map_compare, total_rank
from rbc.rewriting import (
    Match,
    ReductionStep,
    ReductionTrace,
    Rule,
    all_normal_forms,
    apply_match,
    builtin_rules,
    default_step_cap,
    find_matches,
    first_match,
    normalize,
    validate_rule,
    verify_trace,
)
from rbc.semantics import truth_table

from rbc.sampling import random_diagram

from .oracles import oracle_matches
from .strategies import diagram_pairs, diagrams, gates_for, shuffles

RULE_NAMES = [
    "a_not",
    "a_t2",
    "a_t3",
    "p_swap2",
    "p_yang_baxter",
    "s_not_L",
    "s_not_R",
    "s_t2_L",
    "s_t2_R",
    "s_t3_L",
    "s_t3_R",
    "t_swapped_t3",
]

# a swap ladder followed by a control-on-top toffoli: reduces in exactly
# two steps (slide the toffoli through the ladder, then cancel the pair)
LADDER_T3 = Diagram(4, (t3(0), swap(2), swap(1), swap(0), t3(1)))

# smallest circuit with two distinct normal forms
TWO_NF = Diagram(3, (swap(0), swap(1), swap(0), t2(1)))


def rule(name: str) -> Rule:
    return next(r for r in builtin_rules() if r.name == name)


def test_builtin_catalog_names_and_order():
    assert [r.name for r in builtin_rules()] == RULE_NAMES


def test_builtin_catalog_shape():
    fams = Counter(name.split("_")[0] for name in RULE_NAMES)
    assert fams == {"a": 3, "p": 2, "s": 6, "t": 1}
    for r in builtin_rules():
        validate_rule(r)  # idempotent; already ran at construction
        assert r.width <= 4
        assert len(r._walks) == 1  # one source gate: one walk per start


def test_builtin_rules_cached():
    assert builtin_rules() is builtin_rules()


def test_rule_width_mismatch_rejected():
    from rbc.errors import WidthMismatchError

    with pytest.raises(WidthMismatchError):
        Rule("bad", Diagram(2, (swap(0),)), Diagram(3, (swap(0),)))


def test_validate_rule_rejects_wrong_semantics():
    nonsense = Rule("nonsense", Diagram(2, (swap(0), swap(0))), Diagram(2, (not_(0),)))
    with pytest.raises(InvalidRuleError):
        validate_rule(nonsense)


def test_validate_rule_rejects_non_decreasing():
    yb = rule("p_yang_baxter")
    with pytest.raises(NotDecreasingError):
        validate_rule(Rule("backwards", yb.rhs, yb.lhs))
    with pytest.raises(NotDecreasingError):
        validate_rule(Rule("same", yb.lhs, yb.lhs))


def _wires(d: Diagram) -> set[int]:
    return {w for g in d.gates for w in g.support}


def test_rule_replacement_on_a_wire_the_pattern_leaves_alone_is_rejected(tmp_path, capsys):
    with pytest.raises(InvalidRuleError, match="wire 1"):
        Rule("stray", Diagram(2, (not_(0), not_(0))), Diagram(2, (not_(1), not_(1))))
    a_not = rule("a_not")
    with pytest.raises(InvalidRuleError, match="wire 0"):
        Rule("backwards", a_not.rhs, a_not.lhs)
    text = "rule ok\nwires 1\nnot 0\nnot 0\n=>\n\nrule stray\nwires 2\nnot 0\n=>\nnot 1\n"
    with pytest.raises(ParseError) as e:
        parse_rules(text)
    assert e.value.line == 7 and "leaves alone" in e.value.message
    rules_file = tmp_path / "stray.rules"
    rules_file.write_text(text)
    assert cli.main(["verify-rules", "--rules", str(rules_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@st.composite
def _rule_sides(draw):
    """(lhs, rhs) of one width: two random sides, or one side and the
    same gates with a cancelling pair (every gate is its own inverse)
    inserted anywhere, so that both compute one function and only the
    measure can tell them apart."""
    lhs, rhs = draw(diagram_pairs(min_width=1, max_width=4, max_gates=5))
    if draw(st.booleans()):
        g = draw(gates_for(lhs.width))
        at = draw(st.integers(0, len(lhs.gates)))
        rhs = Diagram(lhs.width, lhs.gates[:at] + (g, g) + lhs.gates[at:])
        if draw(st.booleans()):
            lhs, rhs = rhs, lhs
    return lhs, rhs


@settings(max_examples=300, deadline=None)
@given(_rule_sides())
def test_valid_rules_replace_only_pattern_wires(sides):
    """The condition ``Rule`` enforces follows from ``validate_rule``'s,
    checked here on sides ``Rule`` is not asked to accept: a wire the
    pattern leaves alone has an empty suffix, and a replacement gate on
    it gives it a longer one, so the measure cannot drop."""
    lhs, rhs = sides
    try:
        validate_rule(SimpleNamespace(name="r", lhs=lhs, rhs=rhs))
    except (InvalidRuleError, NotDecreasingError):
        return
    assert _wires(rhs) <= _wires(lhs)


def test_find_matches_sees_through_a_spectator():
    d = Diagram(3, (swap(0), not_(2), swap(0)))
    ms = find_matches(d)
    assert [(m.rule_name, m.offset, m.indices) for m in ms] == [
        ("p_swap2", 0, (0, 2)),
    ]


def test_find_matches_blocked_by_pinned_gate():
    # the middle gate overlaps both swaps, so they can never meet
    d = Diagram(2, (swap(0), t2(0), swap(0)))
    assert find_matches(d) == []


def test_find_matches_on_two_nf_circuit():
    ms = find_matches(TWO_NF)
    assert [(m.rule_name, m.offset, m.indices) for m in ms] == [
        ("p_yang_baxter", 0, (0, 1, 2)),
        ("s_t2_R", 0, (1, 2, 3)),
    ]


def test_find_matches_on_ladder_t3():
    ms = find_matches(LADDER_T3)
    assert [(m.rule_name, m.offset, m.indices) for m in ms] == [
        ("s_t3_R", 0, (1, 2, 3, 4)),
    ]


def test_find_matches_orders_overlapping_cancellations():
    d = Diagram(1, (not_(0), not_(0), not_(0), not_(0)))
    ms = find_matches(d)
    # only adjacent pairs are convex; sorted by first gate index
    assert [m.indices for m in ms] == [(0, 1), (1, 2), (2, 3)]
    assert all(m.rule_name == "a_not" for m in ms)


def test_find_matches_window_shift():
    d = Diagram(5, (t2(3), t2(3)))
    ms = find_matches(d)
    assert [(m.rule_name, m.offset, m.indices) for m in ms] == [("a_t2", 3, (0, 1))]


def test_find_matches_respects_custom_catalog():
    d = Diagram(2, (not_(0), not_(0), swap(0), swap(0)))
    only_not = (rule("a_not"),)
    ms = find_matches(d, only_not)
    assert [m.rule_name for m in ms] == ["a_not"]


def test_rule_list_appended_between_calls_is_read_again():
    """A rule list is read afresh on every call, so a rule appended to
    the same list object after a first call is matched by the next."""
    d = Diagram(2, (not_(0), not_(0), swap(0), swap(0)))
    rules = [rule("a_not")]
    assert [m.rule_name for m in find_matches(d, rules)] == ["a_not"]
    assert first_match(d, rules).rule_name == "a_not"
    rules.append(rule("p_swap2"))
    assert [m.rule_name for m in find_matches(d, rules)] == ["a_not", "p_swap2"]
    assert [m.rule_name for m in find_matches(d, tuple(rules))] == ["a_not", "p_swap2"]
    rules[:] = [rule("p_swap2")]
    assert first_match(d, rules).rule_name == "p_swap2"
    nf, trace = normalize(d, rules)
    assert [s.rule_name for s in trace.steps] == ["p_swap2"]
    assert nf == Diagram(2, (not_(0), not_(0)))
    assert all_normal_forms(d, rules=rules) == {nf}


def test_apply_match_keeps_forced_predecessor_in_front():
    # the spectator swap must run before the toffoli it overlaps; the
    # replacement may not jump over it
    d = Diagram(4, (swap(0), swap(2), t3(0)))
    (m,) = [m for m in find_matches(d) if m.rule_name == "t_swapped_t3"]
    assert m.indices == (0, 2)
    out = apply_match(d, m)
    assert out == canonicalize(Diagram(4, (swap(2), t3(0), swap(0))))
    assert truth_table(out) == truth_table(d)


def test_apply_match_ladder_first_step():
    (m,) = find_matches(LADDER_T3)
    out = apply_match(LADDER_T3, m)
    assert out == Diagram(4, (t3(0), t3(0), swap(2), swap(1), swap(0)))
    assert truth_table(out) == truth_table(LADDER_T3)


def test_apply_match_rejects_stale_matches():
    (m,) = find_matches(LADDER_T3)
    # count mismatch
    with pytest.raises(StaleMatchError):
        apply_match(LADDER_T3, Match(m.rule, m.offset, m.indices[:-1]))
    # out of range
    with pytest.raises(StaleMatchError):
        apply_match(LADDER_T3, Match(m.rule, m.offset, (1, 2, 3, 9)))
    # not ascending
    with pytest.raises(StaleMatchError):
        apply_match(LADDER_T3, Match(m.rule, m.offset, (2, 1, 3, 4)))
    # window outside the circuit
    with pytest.raises(StaleMatchError):
        apply_match(LADDER_T3, Match(m.rule, 1, m.indices))
    # right count, wrong gates
    with pytest.raises(StaleMatchError):
        apply_match(LADDER_T3, Match(m.rule, m.offset, (0, 1, 2, 3)))
    # duplicate, empty and negative indices
    for indices in ((1, 1, 3, 4), (), (-1, 2, 3, 4)):
        with pytest.raises(StaleMatchError):
            apply_match(LADDER_T3, Match(m.rule, m.offset, indices))
    # the pattern plus a gate outside its window
    with pytest.raises(StaleMatchError):
        apply_match(Diagram(3, (not_(0), not_(2), not_(0))), Match(rule("a_not"), 0, (0, 1, 2)))
    # pinned spectator between matched gates
    pinned = Diagram(2, (swap(0), t2(0), swap(0)))
    with pytest.raises(StaleMatchError):
        apply_match(pinned, Match(rule("p_swap2"), 0, (0, 2)))


def _pair_rule_text(width: int) -> str:
    """A rule cancelling a pair of nots on each of width wires: 2 x width
    gates whose orders number (2 x width)! / 2**width."""
    pairs = "".join(f"not {j}\nnot {j}\n" for j in range(width))
    return f"rule pairs{width}\nwires {width}\n{pairs}=>\n"


@pytest.mark.parametrize("width", [6, 8])
def test_wide_custom_pattern_is_matched_through_its_links(width, tmp_path, capsys):
    (r,) = parse_rules(_pair_rule_text(width))
    assert len(r._walks) <= r.width
    # first nots ascending, second nots descending: one host order of the
    # pattern among (2 x width)! / 2**width
    gates = [not_(j) for j in range(width)] + [not_(j) for j in reversed(range(width))]
    host = Diagram(width, tuple(gates))
    nf, trace = normalize(host, (r,))
    assert nf == Diagram(width, ())
    assert [s.match.indices for s in trace.steps] == [tuple(range(2 * width))]
    rules_file = tmp_path / "pairs.rules"
    rules_file.write_text(_pair_rule_text(width))
    circuit = tmp_path / "host.rbc"
    circuit.write_text(format_circuit(host))
    assert cli.main(["normalize", str(circuit), "--rules", str(rules_file)]) == 0
    assert capsys.readouterr().out == f"wires {width}\n"


def test_apply_match_checks_without_the_matcher(monkeypatch):
    """Checking a match whose pattern has wire-disjoint parts runs none
    of the matcher's walks: on ten back-to-back copies of
    ``not 0 .. not 5``, the match on the first two copies."""
    (r,) = parse_rules(_pair_rule_text(6))
    host = Diagram(6, tuple(not_(j) for _ in range(10) for j in range(6)))
    m = Match(r, 0, tuple(range(12)))
    calls = []
    extend = rewriting._extend

    def counted(*args):
        calls.append(args)
        extend(*args)

    monkeypatch.setattr(rewriting, "_extend", counted)
    assert apply_match(host, m) == canonicalize(Diagram(6, host.gates[12:]))
    assert calls == []


def test_normalize_double_not():
    nf, trace = normalize(Diagram(2, (not_(0), not_(0), not_(0))))
    assert nf == Diagram(2, (not_(0),))
    assert [s.rule_name for s in trace.steps] == ["a_not"]
    assert trace.final == nf


def test_normalize_ladder_t3_two_steps():
    nf, trace = normalize(LADDER_T3)
    assert nf == Diagram(4, (swap(2), swap(1), swap(0)))
    assert [s.rule_name for s in trace.steps] == ["s_t3_R", "a_t3"]
    assert [s.match.indices for s in trace.steps] == [(1, 2, 3, 4), (0, 1)]
    assert truth_table(nf) == truth_table(LADDER_T3)


def test_normalize_of_normal_form_is_a_fixpoint():
    nf, trace = normalize(Diagram(3, (t3(0), swap(1))))
    assert trace.steps == ()
    assert nf == canonicalize(Diagram(3, (t3(0), swap(1))))


def test_normalize_step_limit():
    with pytest.raises(StepLimitExceeded):
        normalize(Diagram(2, (not_(0), not_(0))), max_steps=0)


def test_default_step_cap_positive_even_for_empty():
    assert default_step_cap(identity(3)) == 10
    assert default_step_cap(LADDER_T3) == 10 * 5 * 87


def test_default_step_cap_bites_on_a_looping_rule():
    """A rule whose sides are equal never lowers the measure; it is built
    directly, so validate_rule never sees it, and only the cap stops it."""
    pair = Diagram(2, (swap(0), swap(0)))
    loop = Rule("loop", pair, pair)
    cap = default_step_cap(pair)
    with pytest.raises(StepLimitExceeded, match=f"within {cap} steps"):
        normalize(pair, (loop,))


def test_trace_lines_show_rule_and_ranks():
    _, trace = normalize(LADDER_T3)
    assert trace.lines() == [
        "step 1: s_t3_R @ wires[0] gates[1,2,3,4] rank 87 -> 81",
        "step 2: a_t3 @ wires[0] gates[0,1] rank 81 -> 45",
    ]


def test_trace_rejects_broken_chain():
    _, trace = normalize(LADDER_T3)
    s1, s2 = trace.steps
    with pytest.raises(ValueError):
        ReductionTrace(trace.initial, (s1, ReductionStep(s2.match, s1.before, s2.after)))


def test_all_normal_forms_swap_cancel():
    assert all_normal_forms(Diagram(2, (swap(0), swap(0)))) == {identity(2)}


def test_all_normal_forms_two_nf_circuit():
    nfs = all_normal_forms(TWO_NF)
    assert nfs == {
        Diagram(3, (swap(1), swap(0), swap(1), t2(1))),
        Diagram(3, (swap(0), t2(0), swap(1), swap(0))),
    }
    tables = {truth_table(n) for n in nfs}
    assert len(tables) == 1
    assert tables == {truth_table(TWO_NF)}


def test_all_normal_forms_state_limit():
    with pytest.raises(StateLimitExceeded):
        all_normal_forms(TWO_NF, max_states=1)


def test_verify_trace_passes_for_real_reduction():
    _, trace = normalize(LADDER_T3)
    report = verify_trace(trace)
    assert report.ok
    assert report.ranks == (87, 81, 45)
    assert report.lines()[-1] == "verify: PASS"
    assert report.lines()[0] == (
        "verify step 1: s_t3_R semantics=ok measure=ok rank 87 -> 81"
    )


def test_verify_trace_flags_a_forged_backwards_step():
    _, trace = normalize(Diagram(2, (not_(0), not_(0))))
    (s,) = trace.steps
    forged = ReductionTrace(s.after, (ReductionStep(s.match, s.after, s.before),))
    report = verify_trace(forged)
    assert not report.ok
    assert report.checks[0].semantics_ok  # function agrees both ways
    assert report.checks[0].measure_verdict is Ordering.GREATER
    assert report.lines()[-1] == "verify: FAIL"


def test_verify_trace_flags_wrong_semantics():
    d = Diagram(1, (not_(0), not_(0)))
    (m,) = find_matches(d)
    # hand-built step whose right side computes a different function
    forged = ReductionTrace(d, (ReductionStep(m, d, Diagram(1, (not_(0),))),))
    report = verify_trace(forged)
    assert not report.ok
    assert not report.checks[0].semantics_ok


def test_verify_trace_of_no_steps_builds_no_table():
    """Nothing to compare, so a normal form wider than the table cap
    still verifies."""
    _, trace = normalize(identity(16))
    report = verify_trace(trace)
    assert report.ok
    assert report.ranks == (0,)


def test_verify_trace_flags_an_extra_gate_in_a_later_step():
    """Each circuit's table is computed once and reused as the next
    step's starting table; a step whose result gained one not must still
    fail on semantics, even though its measure drops."""
    d = Diagram(1, (not_(0), not_(0), not_(0)))
    _, trace = normalize(d)
    (s,) = trace.steps
    forged_after = Diagram(1, s.after.gates + (not_(0),))
    forged = ReductionTrace(d, (ReductionStep(s.match, d, forged_after),))
    report = verify_trace(forged)
    assert not report.ok
    assert report.checks[0].measure_verdict is Ordering.LESS
    assert report.lines()[0] == "verify step 1: a_not semantics=FAIL measure=ok rank 13 -> 4"

    _, trace = normalize(LADDER_T3)
    s1, s2 = trace.steps
    forged_after = Diagram(4, s2.after.gates + (not_(0),))
    forged = ReductionTrace(trace.initial, (s1, ReductionStep(s2.match, s2.before, forged_after)))
    report = verify_trace(forged)
    assert not report.ok
    assert report.checks[0].ok
    assert not report.checks[1].semantics_ok
    assert "semantics=FAIL" in report.lines()[1]


@settings(max_examples=80, deadline=None)
@given(diagrams(max_width=4, max_gates=8))
def test_normalize_preserves_function_and_verifies(d):
    nf, trace = normalize(d)
    assert nf.width == d.width
    assert truth_table(nf) == truth_table(d)
    assert find_matches(nf) == []
    assert verify_trace(trace).ok


@settings(max_examples=60, deadline=None)
@given(diagrams(max_width=4, max_gates=6))
def test_every_match_drops_the_measure(d):
    for m in find_matches(d):
        out = apply_match(d, m)
        assert truth_table(out) == truth_table(d)
        assert map_compare(measure(out), measure(d)) is Ordering.LESS
        assert total_rank(measure(out)) < total_rank(measure(d))


@settings(max_examples=40, deadline=None)
@given(diagrams(max_width=3, max_gates=5))
def test_matcher_agrees_with_reordering_oracle(d):
    rules = builtin_rules()
    got = {(m.rule_name, m.offset, frozenset(m.indices)) for m in find_matches(d, rules)}
    assert got == oracle_matches(d, rules)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduction_edges_ignore_gate_order(data):
    d = data.draw(diagrams(max_width=4, max_gates=6))
    shuffled = data.draw(shuffles(d))
    outs1 = Counter(apply_match(d, m) for m in find_matches(d))
    outs2 = Counter(apply_match(shuffled, m) for m in find_matches(shuffled))
    assert outs1 == outs2


@settings(max_examples=40, deadline=None)
@given(diagrams(max_width=4, max_gates=6))
def test_all_normal_forms_share_one_function(d):
    nfs = all_normal_forms(d, max_states=4000)
    assert len({truth_table(n) for n in nfs}) == 1
    nf, _ = normalize(d)
    assert nf in nfs
    for n in nfs:
        assert find_matches(n) == []
        assert equivalent(n, canonicalize(n))


def _counted_apply_match(monkeypatch) -> list:
    """Route every call of rbc.rewriting.apply_match through a counter,
    the way a benchmark counts rewrite steps."""
    module = sys.modules["rbc.rewriting"]
    real = module.apply_match
    calls = []

    def counted(d, m):
        calls.append(m)
        return real(d, m)

    monkeypatch.setattr(module, "apply_match", counted)
    return calls


def _expansion_matches(d) -> int:
    """Matches over every state all_normal_forms expands from d: every
    state reachable from d's canonical form."""
    start = canonicalize(d)
    seen, todo, total = {start}, [start], 0
    while todo:
        cur = todo.pop()
        ms = find_matches(cur)
        total += len(ms)
        for m in ms:
            nxt = apply_match(cur, m)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return total


def test_apply_match_is_called_once_per_step(monkeypatch):
    """A benchmark counts rewrite steps by wrapping the module's
    apply_match: normalize calls it once per trace step, the search once
    per match of every state it expands."""
    rng = random.Random(2008)
    circuits = [LADDER_T3, TWO_NF] + [random_diagram(rng, max_width=5, max_gates=12)
                                      for _ in range(30)]
    want = [_expansion_matches(d) for d in circuits]
    calls = _counted_apply_match(monkeypatch)
    for d, expanded in zip(circuits, want):
        calls.clear()
        _, trace = normalize(d)
        assert len(calls) == len(trace.steps)
        assert calls == [s.match for s in trace.steps]
        calls.clear()
        all_normal_forms(d)
        assert len(calls) == expanded
    # the ladder has one match in each of two states, TWO_NF two at the start
    assert want[:2] == [2, 2]
    assert sum(want) > len(circuits)
