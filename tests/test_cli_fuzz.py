"""In-process fuzzing of the command line: mutated circuit and rule files,
arguments and RBC_MAX_WIDTH go through ``cli.main``, which must answer
with a documented exit code and never let an exception out.

Every ``wires`` line the fuzzer writes names at most 8 wires, and the
mutations never add digits, so no command builds a large table.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rbc.cli import main
from rbc.files import format_circuit, format_rules, parse_circuit
from rbc.rewriting import builtin_rules

from .strategies import diagrams

DOCUMENTED_CODES = {0, 2, 3, 4, 5}

GATE_LINES = st.builds(
    "{} {}".format,
    st.sampled_from(["swap", "not", "t2", "t3", "fredkin"]),
    st.integers(-1, 8),
)
JUNK_LINES = st.sampled_from([
    "", "   ", "# comment", "wires", "wires x", "wires -1", "swap", "not 0 0",
    "=>", "rule", "rule a", "rule b", "rule a b", "café", "\t", "not 0 # ok",
])
LINES = st.one_of(GATE_LINES, st.integers(-1, 8).map("wires {}".format), JUNK_LINES)

# Circuits that take more than one rewrite step; the second has two
# normal forms.
CIRCUITS = [
    "wires 4\nt3 0\nswap 2\nswap 1\nswap 0\nt3 1\n",
    "wires 3\nswap 0\nswap 1\nswap 0\nt2 1\n",
]
RULE_CATALOGS = [
    "rule drop_not\nwires 1\nnot 0\nnot 0\n=>\n",
    "rule drop_swap\nwires 2\nswap 0\nswap 0\n=>\n",
    "rule drop_not\nwires 1\nnot 0\nnot 0\n=>\n\nrule drop_t2\nwires 2\nt2 0\nt2 0\n=>\n",
    format_rules(builtin_rules()[:4]),
    format_rules(builtin_rules()),
]


def _rarely(draw) -> bool:
    """True about one time in ten.  Hypothesis favours the ends of an
    integer range, so the rare value sits in the middle."""
    return draw(st.integers(0, 9)) == 5


@st.composite
def mutated(draw, base: str) -> bytes:
    """base with some lines deleted, duplicated, swapped or inserted, and
    perhaps a byte that is not UTF-8."""
    lines = base.splitlines()
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "insert"]))
        i = draw(st.integers(0, len(lines)))
        if op == "insert":
            lines.insert(i, draw(LINES))
        elif lines:
            i = min(i, len(lines) - 1)
            if op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                j = draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
    data = "\n".join(lines).encode()
    if _rarely(draw):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# Options each command accepts, as argument lists; eval draws --input
# itself.
OPTIONS = {
    "check": [],
    "truth": [],
    "measure": [],
    "eval": [],
    "normalize": [
        st.just(("--trace",)),
        st.just(("--verify",)),
        st.tuples(st.just("--max-steps"), st.integers(-1, 3).map(str)),
        st.just(("--rules", "RULES")),
    ],
    "nfs": [
        st.tuples(st.just("--max-states"), st.integers(-1, 5).map(str)),
        st.just(("--rules", "RULES")),
    ],
    "verify-rules": [st.just(("--rules", "RULES"))],
}
BAD_OPTIONS = st.sampled_from([
    ("--bogus",), ("--max-steps", "x"), ("--max-states",), ("-h",), ("extra",),
])
WIDTH_CAPS = st.one_of(
    st.integers(-2, 22).map(str),
    st.sampled_from(["", "abc", " 3", "1e3", "0x10", "99999999999999999999"]),
)


@st.composite
def cases(draw) -> tuple[bytes, bytes, list[str], str | None]:
    """A circuit file, a rule file, an argument list naming them as
    CIRCUIT and RULES, and an RBC_MAX_WIDTH value or None."""
    d = draw(st.one_of(diagrams(max_width=8, max_gates=10),
                       st.sampled_from(CIRCUITS).map(parse_circuit)))
    circuit = draw(mutated(format_circuit(d)))
    rules = draw(mutated(draw(st.sampled_from(RULE_CATALOGS))))
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    if command != "verify-rules":
        # About one time in seven a path that is not a circuit file; the
        # rare values sit in the middle of the range, as in _rarely.
        pick = draw(st.integers(0, 19))
        argv.append({9: "RULES", 10: "MISSING", 11: "DIR"}.get(pick, "CIRCUIT"))
    if command == "eval":
        # Mostly a bit string as long as the unmutated circuit is wide.
        bits = draw(st.one_of(st.text("01", min_size=d.width, max_size=d.width),
                              st.text("01x2 ", max_size=9)))
        argv.extend(["--input", bits])
    for opt in OPTIONS[command]:
        if draw(st.booleans()):
            argv.extend(draw(opt))
    if _rarely(draw):
        argv.extend(draw(BAD_OPTIONS))
    cap = draw(WIDTH_CAPS) if draw(st.booleans()) else None
    return circuit, rules, argv, cap


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example((CIRCUITS[0].encode(), b"", ["normalize", "CIRCUIT", "--max-steps", "1"], None))
@example((CIRCUITS[1].encode(), b"", ["nfs", "CIRCUIT", "--max-states", "1"], "3"))
def test_cli_answers_every_input_with_an_exit_code(fuzz_dir, case):
    circuit, rules, argv, cap = case
    (fuzz_dir / "c.rbc").write_bytes(circuit)
    (fuzz_dir / "r.rules").write_bytes(rules)
    paths = {
        "CIRCUIT": str(fuzz_dir / "c.rbc"),
        "RULES": str(fuzz_dir / "r.rules"),
        "MISSING": str(fuzz_dir / "missing.rbc"),
        "DIR": str(fuzz_dir),
    }
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if cap is None:
            mp.delenv("RBC_MAX_WIDTH", raising=False)
        else:
            mp.setenv("RBC_MAX_WIDTH", cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
                from_argparse = False
            except SystemExit as e:
                code = e.code
                from_argparse = True
    assert code in DOCUMENTED_CODES, (argv, err.getvalue())
    if from_argparse:
        return
    if code in (0, 3):
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
