"""Per-layer tracing of rbc from outside the program.

Wrappers are installed on every attribute of every loaded ``rbc`` module
that holds a traced function, because modules import each other's
functions by name (``rbc.rewriting`` holds its own references to
``canonicalize``, ``dependency_closure``, ``truth_table``, ``measure``,
``map_compare`` and ``total_rank``).  Modules are reached through
``sys.modules``: ``import rbc.measure`` binds the *function* that the
package re-exports under that name, not the module.

Per-gate helpers (``gates_overlap``, ``map_seq``, ``apply_gate``) are not
wrapped; their work is derived from the arguments at the wrapped boundary
(rows per truth table, gates per measure fold).

Each call is a span.  A span's self time is its duration minus the time
its child spans cover; spans are folded into per-function totals as they
close rather than kept, which keeps the tracer's own cost low.
"""

from __future__ import annotations

import sys
import time

# <module>.<function> for every traced boundary, in layer order.
TRACED = (
    "diagram.dependency_closure",
    "diagram.layers",
    "diagram.canonicalize",
    "rewriting.find_matches",
    "rewriting.apply_match",
    "rewriting.normalize",
    "rewriting.all_normal_forms",
    "rewriting.verify_trace",
    "semantics.truth_table",
    "measure.measure",
    "moves.map_compare",
    "moves.total_rank",
)

# Traced functions that every workload calls; only these report self
# time in seconds in the result line (see perfbench/NOTES.md).
EVERYWHERE = (
    "diagram.dependency_closure",
    "diagram.layers",
    "diagram.canonicalize",
    "rewriting.find_matches",
    "rewriting.apply_match",
)

_ANF = "rewriting.all_normal_forms"


def _rbc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "rbc" or name.startswith("rbc.")]


class Patch:
    """Swaps functions for replacements at every rbc attribute holding them,
    for the duration of a ``with`` block."""

    def __init__(self, replacements: dict):
        by_id = {id(fn): new for fn, new in replacements.items()}
        self._sites = [
            (module, attr, fn, by_id[id(fn)])
            for module in _rbc_modules()
            for attr, fn in list(vars(module).items())
            if id(fn) in by_id
        ]

    def __enter__(self):
        for module, attr, _, new in self._sites:
            setattr(module, attr, new)
        return self

    def __exit__(self, *exc):
        for module, attr, old, _ in self._sites:
            setattr(module, attr, old)


def original(name: str):
    module, attr = name.split(".")
    return getattr(sys.modules["rbc." + module], attr)


class CallCounter:
    """Counts calls to one function without timing them."""

    def __init__(self, name: str):
        fn = original(name)
        self.calls = 0

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        self.patch = Patch({fn: counted})


class Tracer:
    """Self time, call counts and work counts per traced function."""

    def __init__(self):
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        self.under_anf = {"rewriting.find_matches": 0, "rewriting.apply_match": 0}
        self.work = {"semantics.truth_table": 0, "measure.measure": 0,
                     "rewriting.find_matches": 0}
        self._stack: list[list] = []  # [name, time covered by child spans]
        self.patch = Patch({original(n): self._wrap(n, original(n)) for n in TRACED})

    def _wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if parent is not None and parent[0] == _ANF and name in self.under_anf:
                self.under_anf[name] += 1
            if name == "semantics.truth_table":
                self.work[name] += 1 << args[0].width
            elif name == "measure.measure":
                self.work[name] += len(args[0].gates)
            elif name == "rewriting.find_matches":
                self.work[name] += len(result)
            return result

        return traced

    def metrics(self, traced_s: float, untraced_s: float, passes: int) -> dict:
        """Per-layer metrics for one of ``passes`` identical passes:
        ``calls`` and ``self_frac`` for every traced function, ``self_s``
        for those in EVERYWHERE, work counts and ratios, and the tracing
        overhead."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name] // passes, "count")
            if name in EVERYWHERE:
                out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
            out[f"{name}.self_frac"] = (self.self_s[name] / traced_s, "frac")
        applies = self.calls["rewriting.apply_match"]
        found = self.work["rewriting.find_matches"]
        # Every state the search keeps is expanded by exactly one
        # find_matches call, so states = those calls, and each apply that
        # did not add a state (beyond each search's start) hit a seen one.
        states = self.under_anf["rewriting.find_matches"]
        anf_applies = self.under_anf["rewriting.apply_match"]
        dups = anf_applies - (states - self.calls[_ANF])
        out.update({
            "semantics.truth_table.rows": (
                self.work["semantics.truth_table"] // passes, "count"),
            "measure.measure.gates": (self.work["measure.measure"] // passes, "count"),
            "diagram.dependency_closure.per_step": (
                _ratio(self.calls["diagram.dependency_closure"], applies), "ratio"),
            "rewriting.find_matches.matches": (found // passes, "count"),
            "rewriting.match_use_ratio": (_ratio(applies, found), "ratio"),
            "rewriting.all_normal_forms.states": (states // passes, "count"),
            "rewriting.all_normal_forms.dup_ratio": (_ratio(dups, anf_applies), "ratio"),
            "tracing_overhead_frac": (traced_s / untraced_s - 1, "frac"),
        })
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
