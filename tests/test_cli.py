from __future__ import annotations

import pytest

from rbc.cli import main

LADDER_T3 = "wires 4\nt3 0\nswap 2\nswap 1\nswap 0\nt3 1\n"
TWO_NF = "wires 3\nswap 0\nswap 1\nswap 0\nt2 1\n"

TWO_NF_OUTPUT = """\
nf 1:
wires 3
swap 0
t2 0
swap 1
swap 0
nf 2:
wires 3
swap 1
swap 0
swap 1
t2 1
count 2
"""


@pytest.fixture()
def run(tmp_path, capsys):
    def go(*argv, files=None):
        paths = {}
        for fname, text in (files or {}).items():
            p = tmp_path / fname
            p.write_text(text)
            paths[fname] = str(p)
        resolved = [paths.get(a, a) for a in argv]
        code = main(resolved)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def test_check_ok(run):
    code, out, err = run("check", "c.rbc", files={"c.rbc": LADDER_T3})
    assert code == 0
    assert out == "ok: width=4 gates=5\n"
    assert err == ""


def test_check_reports_line_of_bad_gate(run):
    code, out, err = run("check", "c.rbc", files={"c.rbc": "wires 2\nt3 0\n"})
    assert code == 2
    assert err.startswith("error: line 2:")


def test_missing_file(run):
    code, _, err = run("check", "/nonexistent/q.rbc")
    assert code == 2
    assert "cannot read" in err


def test_truth_not(run):
    code, out, _ = run("truth", "n.rbc", files={"n.rbc": "wires 1\nnot 0\n"})
    assert code == 0
    assert out == "0 -> 1\n1 -> 0\n"


def test_truth_width_cap(run, monkeypatch):
    wide = "wires 13\n"
    code, _, err = run("truth", "w.rbc", files={"w.rbc": wide})
    assert code == 2
    assert "width" in err

    monkeypatch.setenv("RBC_MAX_WIDTH", "13")
    code, out, _ = run("truth", "w.rbc", files={"w.rbc": wide})
    assert code == 0
    assert len(out.splitlines()) == 2**13


def test_eval_t3(run):
    code, out, _ = run(
        "eval", "t.rbc", "--input", "110", files={"t.rbc": "wires 3\nt3 0\n"}
    )
    assert code == 0
    assert out == "110 -> 111\n"


def test_eval_swap(run):
    code, out, _ = run(
        "eval", "s.rbc", "--input", "10", files={"s.rbc": "wires 2\nswap 0\n"}
    )
    assert code == 0
    assert out == "10 -> 01\n"


def test_eval_rejects_non_bits(run):
    code, _, err = run(
        "eval", "s.rbc", "--input", "1x", files={"s.rbc": "wires 2\nswap 0\n"}
    )
    assert code == 2
    assert "bit string" in err


def test_eval_rejects_wrong_length(run):
    code, _, err = run(
        "eval", "s.rbc", "--input", "101", files={"s.rbc": "wires 2\nswap 0\n"}
    )
    assert code == 2
    assert "width" in err


def test_measure_swap_ladder(run):
    text = "wires 3\nswap 0\nswap 1\nswap 0\n"
    code, out, _ = run("measure", "l.rbc", files={"l.rbc": text})
    assert code == 0
    assert out == (
        'out[0] <- in[2] ++ "ll"\n'
        'out[1] <- in[1] ++ "lr"\n'
        'out[2] <- in[0] ++ "rr"\n'
        "rank 31\n"
    )


def test_measure_identity(run):
    code, out, _ = run("measure", "i.rbc", files={"i.rbc": "wires 2\n"})
    assert code == 0
    assert out.endswith("rank 0\n")


def test_normalize_plain(run):
    text = "wires 1\nnot 0\nnot 0\nnot 0\n"
    code, out, _ = run("normalize", "n.rbc", files={"n.rbc": text})
    assert code == 0
    assert out == "wires 1\nnot 0\n"


def test_normalize_trace_and_verify(run):
    code, out, _ = run(
        "normalize", "f.rbc", "--trace", "--verify", files={"f.rbc": LADDER_T3}
    )
    assert code == 0
    assert out == (
        "step 1: s_t3_R @ wires[0] gates[1,2,3,4] rank 87 -> 81\n"
        "step 2: a_t3 @ wires[0] gates[0,1] rank 81 -> 45\n"
        "wires 4\n"
        "swap 2\n"
        "swap 1\n"
        "swap 0\n"
        "verify step 1: s_t3_R semantics=ok measure=ok rank 87 -> 81\n"
        "verify step 2: a_t3 semantics=ok measure=ok rank 81 -> 45\n"
        "ranks: 87 -> 81 -> 45\n"
        "verify: PASS\n"
    )


def test_normalize_step_limit_exit_code(run):
    code, _, err = run(
        "normalize", "f.rbc", "--max-steps", "1", files={"f.rbc": LADDER_T3}
    )
    assert code == 4
    assert "steps" in err


def test_nfs_two_forms(run):
    code, out, _ = run("nfs", "c.rbc", files={"c.rbc": TWO_NF})
    assert code == 0
    assert out == TWO_NF_OUTPUT


def test_nfs_single_form(run):
    code, out, _ = run("nfs", "c.rbc", files={"c.rbc": "wires 2\nswap 0\nswap 0\n"})
    assert code == 0
    assert out == "nf 1:\nwires 2\ncount 1\n"


def test_nfs_state_limit_exit_code(run):
    code, _, err = run("nfs", "c.rbc", "--max-states", "1", files={"c.rbc": TWO_NF})
    assert code == 5
    assert "circuits" in err


def test_verify_rules_builtin(run):
    code, out, _ = run("verify-rules")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert all("STRICT" in line and "NOT STRICT" not in line for line in lines)
    yb = next(line for line in lines if "p_yang_baxter" in line)
    assert "lr > rl" in yb
    s3 = next(line for line in lines if "s_t3_L" in line)
    assert "lt > tl" in s3


def test_verify_rules_custom_catalog(run):
    catalog = "rule drop\nwires 2\nswap 0\nswap 0\n=>\n"
    code, out, _ = run(
        "verify-rules", "--rules", "r.rules", files={"r.rules": catalog}
    )
    assert code == 0
    assert len(out.splitlines()) == 1
    assert "drop" in out and "STRICT" in out


def test_rules_file_validated_at_load(run):
    backwards = "rule up\nwires 3\nswap 1\nswap 0\nswap 1\n=>\nswap 0\nswap 1\nswap 0\n"
    code, _, err = run(
        "normalize", "c.rbc", "--rules", "r.rules",
        files={"c.rbc": TWO_NF, "r.rules": backwards},
    )
    assert code == 2
    assert "strict drop" in err


def test_normalize_with_custom_catalog(run):
    catalog = "rule drop_not\nwires 1\nnot 0\nnot 0\n=>\n"
    text = "wires 2\nnot 0\nnot 0\nswap 0\nswap 0\n"
    code, out, _ = run(
        "normalize", "c.rbc", "--rules", "r.rules",
        files={"c.rbc": text, "r.rules": catalog},
    )
    assert code == 0
    # the custom catalog has no swap rule, so the swaps stay
    assert out == "wires 2\nswap 0\nswap 0\n"


def test_stdout_is_deterministic(run):
    first = run("nfs", "c.rbc", files={"c.rbc": TWO_NF})
    second = run("nfs", "c.rbc", files={"c.rbc": TWO_NF})
    assert first == second
    a = run("normalize", "f.rbc", "--trace", "--verify", files={"f.rbc": LADDER_T3})
    b = run("normalize", "f.rbc", "--trace", "--verify", files={"f.rbc": LADDER_T3})
    assert a == b


def test_width_cap_not_an_integer(run, monkeypatch):
    monkeypatch.setenv("RBC_MAX_WIDTH", "abc")
    code, out, err = run("truth", "n.rbc", files={"n.rbc": "wires 1\nnot 0\n"})
    assert code == 2
    assert out == ""
    assert err == 'error: RBC_MAX_WIDTH "abc" is not an integer\n'


@pytest.mark.parametrize("raw", ["21", "-1", "1000000"])
def test_width_cap_out_of_range(run, monkeypatch, raw):
    import rbc.cli

    def no_table(*args, **kwargs):
        raise AssertionError("a truth table was built")

    monkeypatch.setattr(rbc.cli, "truth_table", no_table)
    monkeypatch.setenv("RBC_MAX_WIDTH", raw)
    code, out, err = run("truth", "w.rbc", files={"w.rbc": "wires 30\n"})
    assert code == 2
    assert out == ""
    assert err == f"error: RBC_MAX_WIDTH {raw} is outside 0..20\n"


def test_width_cap_range_ends_accepted(run, monkeypatch):
    monkeypatch.setenv("RBC_MAX_WIDTH", "0")
    assert run("truth", "z.rbc", files={"z.rbc": "wires 0\n"}) == (0, " -> \n", "")
    monkeypatch.setenv("RBC_MAX_WIDTH", "20")
    assert run("truth", "n.rbc", files={"n.rbc": "wires 1\nnot 0\n"}) == (
        0, "0 -> 1\n1 -> 0\n", "")


def test_check_directory(run, tmp_path):
    code, out, err = run("check", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {tmp_path}:")
    assert err.count("\n") == 1


def test_circuit_not_utf8(run, tmp_path):
    path = tmp_path / "latin1.rbc"
    path.write_bytes(b"wires 2\n# caf\xe9\nswap 0\n")
    code, out, err = run("check", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: not UTF-8 text (byte 0xe9)\n"


def test_rules_not_utf8(run, tmp_path):
    path = tmp_path / "r.rules"
    path.write_bytes(b"rule \xff\nwires 1\nnot 0\nnot 0\n=>\n")
    code, _, err = run("normalize", "c.rbc", "--rules", str(path),
                       files={"c.rbc": TWO_NF})
    assert code == 2
    assert err == "error: line 1: not UTF-8 text (byte 0xff)\n"


@pytest.mark.parametrize("command, option", [("normalize", "--max-steps"),
                                             ("nfs", "--max-states")])
def test_negative_limits_rejected(run, command, option):
    code, out, err = run(command, "c.rbc", option, "-1", files={"c.rbc": TWO_NF})
    assert code == 2
    assert out == ""
    assert err == f"error: {option} must not be negative, got -1\n"


def test_duplicate_rule_names_rejected(run):
    catalog = ("rule drop\nwires 1\nnot 0\nnot 0\n=>\n"
               "rule drop\nwires 2\nswap 0\nswap 0\n=>\n")
    code, out, err = run("verify-rules", "--rules", "r.rules", files={"r.rules": catalog})
    assert code == 2
    assert out == ""
    assert err == 'error: line 6: rule "drop" is already defined at line 1\n'


@pytest.mark.parametrize("command", ["check", "measure", "normalize", "nfs", "truth"])
def test_wire_count_above_limit(run, command):
    code, out, err = run(command, "w.rbc", files={"w.rbc": "wires 100000000000\nnot 0\n"})
    assert code == 2
    assert out == ""
    assert err == "error: line 1: wire count 100000000000 is above the limit of 65536\n"


def test_gate_count_above_limit(run, monkeypatch):
    import rbc.files

    monkeypatch.setattr(rbc.files, "MAX_GATES", 2)
    assert run("check", "c.rbc", files={"c.rbc": "wires 1\nnot 0\nnot 0\n"})[0] == 0
    code, out, err = run("measure", "c.rbc", files={"c.rbc": "wires 1\nnot 0\nnot 0\nnot 0\n"})
    assert (code, out, err) == (2, "", "error: line 4: more than 2 gates\n")


@pytest.mark.parametrize("bits, message", [
    ("1x", 'input "1x" is not a bit string'),
    ("", "input has 0 bits, circuit has width 2"),
    ("101", "input has 3 bits, circuit has width 2"),
])
def test_eval_input_errors(run, bits, message):
    code, out, err = run("eval", "s.rbc", "--input", bits, files={"s.rbc": "wires 2\nswap 0\n"})
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_eval_wide_circuit(run):
    """eval has no table cap: a 40-wire circuit runs on one input."""
    text = "wires 40\nnot 0\nt2 0\nswap 38\nt3 37\n"
    bits = "0" * 37 + "110"
    code, out, err = run("eval", "w.rbc", "--input", bits, files={"w.rbc": text})
    assert (code, err) == (0, "")
    assert out == f"{bits} -> 11{'0' * 35}101\n"


@pytest.mark.parametrize("argv, code, text", [
    (("normalize", "c.rbc", "--max-steps", "0"), 4, "steps"),
    (("nfs", "c.rbc", "--max-states", "0"), 5, "circuits"),
])
def test_limits_exit_through_main(run, argv, code, text):
    got, out, err = run(*argv, files={"c.rbc": TWO_NF})
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err
