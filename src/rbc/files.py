"""Plain-text formats for circuits and rule catalogs.

Circuit files: a ``wires <n>`` header, then one gate per line
(``swap k``, ``not k``, ``t2 k``, ``t3 k``).  Blank lines and ``#``
comments are ignored.

Rule files hold a sequence of blocks, each with a name of its own::

    rule <name>
    wires <n>
    <pattern gate lines>
    =>
    <replacement gate lines>

A ``wires`` count above ``MAX_WIRES``, or more than ``MAX_GATES`` gates
in a circuit or in one side of a rule, is a ``ParseError`` at the
offending line: the engine keeps per-wire and per-gate lists on every
rewrite step, so the parser bounds both before anything is built.
"""

from __future__ import annotations

from .diagram import Diagram, Gate, GateKind
from .errors import OutOfRangeError, ParseError
from .rewriting import Rule, validate_rule

_TOKEN_TO_KIND = {k.value: k for k in GateKind}

MAX_WIRES = 65536
MAX_GATES = 1_000_000


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_gate(lineno: int, line: str) -> Gate:
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(lineno, f'expected "<gate> <wire>", got "{line}"')
    token, arg = parts
    kind = _TOKEN_TO_KIND.get(token)
    if kind is None:
        raise ParseError(lineno, f'unknown gate "{token}"')
    try:
        offset = int(arg)
    except ValueError:
        raise ParseError(lineno, f'wire offset "{arg}" is not an integer') from None
    return Gate(kind, offset)


def _parse_header(lineno: int, line: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "wires":
        raise ParseError(lineno, f'expected "wires <n>", got "{line}"')
    try:
        width = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f'wire count "{parts[1]}" is not an integer') from None
    if width < 0:
        raise ParseError(lineno, f"wire count {width} is negative")
    if width > MAX_WIRES:
        raise ParseError(lineno, f"wire count {width} is above the limit of {MAX_WIRES}")
    return width


def _add_gate(gates: list[Gate], lineno: int, line: str) -> None:
    if len(gates) == MAX_GATES:
        raise ParseError(lineno, f"more than {MAX_GATES} gates")
    gates.append(_parse_gate(lineno, line))


def parse_circuit(text: str) -> Diagram:
    width = None
    gates: list[Gate] = []
    gate_lines: list[int] = []
    for lineno, line in _meaningful_lines(text):
        if width is None:
            width = _parse_header(lineno, line)
        else:
            _add_gate(gates, lineno, line)
            gate_lines.append(lineno)
    if width is None:
        raise ParseError(1, 'missing "wires <n>" header')
    d = Diagram(width, tuple(gates))
    try:
        d.validate()
    except OutOfRangeError as e:
        lineno = gate_lines[e.gate_index] if 0 <= e.gate_index < len(gate_lines) else 1
        raise ParseError(lineno, str(e)) from None
    return d


def format_circuit(d: Diagram) -> str:
    lines = [f"wires {d.width}"]
    lines.extend(f"{g.kind.value} {g.offset}" for g in d.gates)
    return "\n".join(lines)


def parse_rules(text: str) -> tuple[Rule, ...]:
    rules: list[Rule] = []
    first_seen: dict[str, int] = {}  # rule name -> line of its "rule" line
    name = None
    width = None
    side = "lhs"
    lhs: list[Gate] = []
    rhs: list[Gate] = []
    start_line = 1

    def finish(lineno: int) -> None:
        if name is None:
            return
        if width is None:
            raise ParseError(start_line, f'rule "{name}" has no "wires <n>" line')
        if side == "lhs":
            raise ParseError(start_line, f'rule "{name}" has no "=>" separator')
        try:
            rule = Rule(name, Diagram(width, tuple(lhs)), Diagram(width, tuple(rhs)))
            validate_rule(rule)
        except ParseError:
            raise
        except Exception as e:
            raise ParseError(start_line, str(e)) from None
        rules.append(rule)

    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if parts[0] == "rule":
            finish(lineno)
            if len(parts) != 2:
                raise ParseError(lineno, f'expected "rule <name>", got "{line}"')
            if parts[1] in first_seen:
                raise ParseError(lineno, f'rule "{parts[1]}" is already defined '
                                         f"at line {first_seen[parts[1]]}")
            first_seen[parts[1]] = lineno
            name, width, side = parts[1], None, "lhs"
            lhs, rhs = [], []
            start_line = lineno
        elif name is None:
            raise ParseError(lineno, f'expected "rule <name>", got "{line}"')
        elif parts[0] == "wires":
            width = _parse_header(lineno, line)
        elif line == "=>":
            if side == "rhs":
                raise ParseError(lineno, 'second "=>" in one rule')
            side = "rhs"
        else:
            if width is None:
                raise ParseError(lineno, f'expected "wires <n>" before gates')
            _add_gate(lhs if side == "lhs" else rhs, lineno, line)
    finish(0)
    if not rules:
        raise ParseError(1, "no rules found")
    return tuple(rules)


def format_rules(rules: tuple[Rule, ...]) -> str:
    blocks = []
    for r in rules:
        lines = [f"rule {r.name}", f"wires {r.width}"]
        lines.extend(f"{g.kind.value} {g.offset}" for g in r.lhs.gates)
        lines.append("=>")
        lines.extend(f"{g.kind.value} {g.offset}" for g in r.rhs.gates)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
