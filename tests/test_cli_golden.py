"""CLI output on ``circuits/``, pinned byte for byte.

Each case runs ``rbc`` in-process through ``cli.main`` and compares its
standard output, standard error and exit code with one file under
``tests/golden/cli/``.  To rewrite those files after an intended output
change, run ``PYTHONPATH=src python -m tests.test_cli_golden`` from the
repository root and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from rbc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli"
COMMANDS = {
    "check": ("check",),
    "truth": ("truth",),
    "measure": ("measure",),
    "normalize": ("normalize", "--trace", "--verify"),
    "nfs": ("nfs",),
}


def _cases() -> list[tuple[str, list[str]]]:
    cases = [("verify-rules", ["verify-rules"])]
    for path in sorted((ROOT / "circuits").glob("*.rbc")):
        for name, (cmd, *flags) in COMMANDS.items():
            cases.append((f"{path.stem}.{name}", [cmd, str(path), *flags]))
    return cases


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n"


@pytest.mark.parametrize("name,argv", _cases(), ids=[n for n, _ in _cases()])
def test_cli_output_equals_golden(name, argv, monkeypatch):
    monkeypatch.delenv("RBC_MAX_WIDTH", raising=False)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(argv) == expected


def test_every_circuit_has_golden_files():
    names = {f"{n}.txt" for n, _ in _cases()}
    assert names == {p.name for p in GOLDEN.glob("*.txt")}
    assert len(names) == 1 + len(COMMANDS) * len(list((ROOT / "circuits").glob("*.rbc")))


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in _cases():
        (GOLDEN / f"{name}.txt").write_text(_run(argv), encoding="utf-8")
