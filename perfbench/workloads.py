"""The three workloads: seeded inputs, the timed call into rbc, the
untimed independent check, and one behaviour-digest line per circuit.

Why each workload exists, and which layer it is predicted to load, is
recorded in BENCHMARK.json and perfbench/NOTES.md.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable

import reference

KINDS = (("swap", 2), ("not", 1), ("t2", 2), ("t3", 3))
MAX_STATES = 10000  # all_normal_forms' own default


def _gate(kind: str, offset: int):
    diagram = sys.modules["rbc.diagram"]
    return diagram.Gate(diagram.GateKind(kind), offset)


def _draw(rng: random.Random, width: int, count: int):
    kinds = [k for k in KINDS if k[1] <= width]
    gates = []
    for _ in range(count):
        kind, arity = rng.choice(kinds)
        gates.append(_gate(kind, rng.randint(0, width - arity)))
    return sys.modules["rbc.diagram"].Diagram(width, tuple(gates))


def sweep_circuit(rng: random.Random):
    """termination_sweep.py's draw at its README settings (width <= 6,
    <= 25 gates), consuming the generator the same way, so seed s gives
    the circuits that ``termination_sweep.py --seed s`` normalizes."""
    width = rng.randint(0, 6)
    return _draw(rng, width, rng.randint(0, 25) if width else 0)


def fixed_circuit(width: int, count: int) -> Callable:
    return lambda rng: _draw(rng, width, count)


def describe(d) -> str:
    return f"w{d.width}:" + " ".join(f"{g.kind.value}{g.offset}" for g in d.gates)


class Skipped(Exception):
    """The search hit its state limit: neither a success nor a failure."""


@dataclass
class Outcome:
    digest: str  # one line of the behaviour digest
    problems: list[str]  # failed checks; empty when the output is correct


def _reduction_problems(d, nf, trace) -> list[str]:
    problems = []
    if not reference.same_function(d, nf):
        problems.append("normal form computes a different function")
    maps = [reference.word_map(trace.initial)]
    maps += [reference.word_map(s.after) for s in trace.steps]
    for i, (before, after) in enumerate(zip(maps, maps[1:]), 1):
        if not (reference.strictly_below(after, before)
                and reference.rank(after[1]) < reference.rank(before[1])):
            problems.append(f"step {i}: measure or rank does not strictly drop")
    return problems


def _trace_digest(nf, trace) -> str:
    return f"{len(trace.steps)} {','.join(s.rule_name for s in trace.steps)} {describe(nf)}"


# --- sweep: normalize, then the in-process equivalent of --verify -------

def sweep_run(d):
    rewriting = sys.modules["rbc.rewriting"]
    nf, trace = rewriting.normalize(d)
    return nf, trace, rewriting.verify_trace(trace).ok


def sweep_check(d, out, rng) -> Outcome:
    nf, trace, verified = out
    problems = [] if verified else ["verify_trace reported a failed step"]
    problems += _reduction_problems(d, nf, trace)
    return Outcome(_trace_digest(nf, trace), problems)


# --- large: normalize only (verify_trace refuses widths above 12) --------

def large_run(d):
    return sys.modules["rbc.rewriting"].normalize(d)


def large_check(d, out, rng) -> Outcome:
    nf, trace = out
    return Outcome(_trace_digest(nf, trace), _reduction_problems(d, nf, trace))


# --- search: every normal form by exhaustive search ---------------------

def search_run(d):
    rewriting = sys.modules["rbc.rewriting"]
    try:
        return rewriting.all_normal_forms(d, max_states=MAX_STATES)
    except sys.modules["rbc.errors"].StateLimitExceeded:
        raise Skipped from None


def search_check(d, forms, rng) -> Outcome:
    problems = [f"normal form {describe(f)} computes a different function"
                for f in forms if not reference.same_function(d, f)]
    if len(forms) > 1:
        # The set must not depend on how the gate list is written.
        try:
            again = search_run(reference.reorder(rng, d))
        except Skipped:
            again = None
        if again != forms:
            problems.append("a reordered gate list gives another normal-form set")
    digest = f"{len(forms)} " + ";".join(sorted(describe(f) for f in forms))
    return Outcome(digest, problems)


@dataclass(frozen=True)
class Workload:
    draw: Callable  # rng -> circuit
    run: Callable  # circuit -> output; the only timed call
    check: Callable  # (circuit, output, rng) -> Outcome; untimed
    digest_count: int  # circuits always run, covered by the behaviour digest


WORKLOADS = {
    "sweep": Workload(sweep_circuit, sweep_run, sweep_check, 1000),
    "large": Workload(fixed_circuit(16, 120), large_run, large_check, 6),
    "search": Workload(fixed_circuit(5, 12), search_run, search_check, 1000),
}
