"""End-to-end acceptance gate.

One test per criterion; each prints a single ``[criterion N] name: PASS``
line (run with ``pytest -s`` to see them) and pins its own time budget.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import time
from pathlib import Path

from rbc.cli import main
from rbc.diagram import Diagram, canonicalize, equivalent, identity, not_, swap, t2, t3
from rbc.measure import measure, verify_strict
from rbc.moves import Ordering, map_par, map_seq, word_compare, word_rank
from rbc.rewriting import all_normal_forms, builtin_rules, find_matches, normalize, verify_trace
from rbc.sampling import random_diagram
from rbc.semantics import evaluate, identity_table, index_to_bits, truth_table

from .oracles import _words_upto, oracle_matches

GOLDEN = Path(__file__).parent / "golden"


def criterion(num: int, name: str, budget_s: float):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] {name}: FAIL")
                raise
            elapsed = time.perf_counter() - t0
            assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.2f}s"
            print(f"[criterion {num}] {name}: PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


def _cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@criterion(1, "all 12 rules strictly lower the measure", budget_s=1.0)
def test_criterion_1_rule_strictness():
    report = verify_strict(builtin_rules())
    assert report.all_strict
    assert len(report.entries) == 12
    by_name = {e.name: e for e in report.entries}
    assert by_name["p_yang_baxter"].lhs_map.suffixes == ("ll", "lr", "rr")
    assert by_name["p_yang_baxter"].rhs_map.suffixes == ("ll", "rl", "rr")
    assert by_name["a_t3"].lhs_map.suffixes == ("tt", "tt", "tt")
    assert by_name["a_t3"].rhs_map.suffixes == ("", "", "")
    assert by_name["s_t3_L"].lhs_map.suffixes == ("lt", "lt", "lt", "rrr")
    assert by_name["s_t3_L"].rhs_map.suffixes == ("tl", "tl", "tl", "rrr")
    code, out = _cli("verify-rules")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert all("NOT STRICT" not in ln and "STRICT" in ln for ln in lines)


@criterion(2, "toffoli slides through a swap ladder and cancels", budget_s=1.0)
def test_criterion_2_ladder_reduction():
    start = Diagram(4, (t3(0), swap(2), swap(1), swap(0), t3(1)))
    nf, trace = normalize(start)
    assert nf == Diagram(4, (swap(2), swap(1), swap(0)))
    assert [s.rule_name for s in trace.steps] == ["s_t3_R", "a_t3"]
    for row in range(16):
        bits = index_to_bits(row, 4)
        assert evaluate(start, bits) == evaluate(nf, bits)
    assert truth_table(start) == truth_table(nf)


@criterion(3, "two distinct normal forms, one boolean function", budget_s=1.0)
def test_criterion_3_non_confluence(tmp_path):
    start = Diagram(3, (swap(0), swap(1), swap(0), t2(1)))
    forms = all_normal_forms(start)
    assert len(forms) >= 2
    displayed_a = Diagram(3, (swap(1), swap(0), swap(1), t2(1)))
    displayed_b = Diagram(3, (swap(0), t2(0), swap(1), swap(0)))
    assert any(equivalent(f, displayed_a) for f in forms)
    assert any(equivalent(f, displayed_b) for f in forms)
    assert {truth_table(f) for f in forms} == {truth_table(start)}
    # exact reachable set, pinned the first time the search was run
    assert len(forms) == 2
    src = GOLDEN / "two_normal_forms.nfs.txt"
    circuit = tmp_path / "two_normal_forms.rbc"
    circuit.write_text("wires 3\nswap 0\nswap 1\nswap 0\nt2 1\n")
    code, out = _cli("nfs", str(circuit))
    assert code == 0
    assert out == src.read_text()


@criterion(4, "500 random circuits normalize with verified traces", budget_s=60.0)
def test_criterion_4_termination_sweep():
    rng = random.Random(4001)
    for _ in range(500):
        d = random_diagram(rng, max_width=6, max_gates=25)
        nf, trace = normalize(d)  # raises StepLimitExceeded on cap
        assert find_matches(nf) == []
        report = verify_trace(trace)
        assert report.ok
        assert all(b > a for b, a in zip(report.ranks, report.ranks[1:]))
        assert truth_table(nf) == truth_table(d)


@criterion(5, "measure respects both compositions", budget_s=10.0)
def test_criterion_5_functoriality():
    rng = random.Random(5001)
    for _ in range(200):
        w = rng.randint(0, 5)
        d1 = random_diagram(rng, width=w, max_gates=10)
        d2 = random_diagram(rng, width=w, max_gates=10)
        assert measure(d1 >> d2) == map_seq(measure(d1), measure(d2))
    for _ in range(200):
        d1 = random_diagram(rng, max_width=4, max_gates=10)
        d2 = random_diagram(rng, max_width=4, max_gates=10)
        assert measure(d1 @ d2) == map_par(measure(d1), measure(d2))
        assert measure(canonicalize(d1)) == measure(d1)


@criterion(6, "word rank is the order isomorphism onto 0..120", budget_s=1.0)
def test_criterion_6_order_isomorphism():
    words = _words_upto(4)
    assert len(words) == 121
    ranks = sorted(word_rank(w) for w in words)
    assert ranks == list(range(121))
    ordered = sorted(words, key=lambda w: word_rank(w))
    for a, b in zip(ordered, ordered[1:]):
        assert word_compare(a, b) is Ordering.LESS


@criterion(7, "matcher agrees with the all-reorderings oracle", budget_s=60.0)
def test_criterion_7_matcher_oracle():
    rng = random.Random(7001)
    rules = builtin_rules()
    for _ in range(200):
        d = random_diagram(rng, max_width=5, max_gates=8)
        got = {(m.rule_name, m.offset, frozenset(m.indices))
               for m in find_matches(d, rules)}
        assert got == oracle_matches(d, rules)


@criterion(8, "every generator cancels itself in one step", budget_s=1.0)
def test_criterion_8_self_inverse_generators():
    for gate, width in ((not_(0), 1), (swap(0), 2), (t2(0), 2), (t3(0), 3)):
        g = Diagram(width, (gate,))
        doubled = g >> g
        assert truth_table(doubled) == identity_table(width)
        nf, trace = normalize(doubled)
        assert nf == identity(width)
        assert len(trace.steps) == 1
