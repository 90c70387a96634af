"""Reversible boolean circuits with exchange-aware rewriting and a
termination measure that certifies every reduction step."""

from .diagram import (
    Diagram,
    Gate,
    GateKind,
    Layer,
    canonicalize,
    commute,
    compose_par,
    compose_seq,
    dependency_closure,
    equivalent,
    identity,
    layers,
    not_,
    swap,
    t2,
    t3,
)
from .errors import (
    InputError,
    InvalidRuleError,
    LengthMismatchError,
    NotComposableError,
    NotDecreasingError,
    OutOfRangeError,
    ParseError,
    RbcError,
    StaleMatchError,
    StateLimitExceeded,
    StepLimitExceeded,
    WidthMismatchError,
    WidthTooLargeError,
)
from .files import format_circuit, format_rules, parse_circuit, parse_rules
from .measure import (
    RuleVerdict,
    StrictnessReport,
    gate_measure,
    measure,
    rule_measure,
    verify_strict,
)
from .moves import (
    MoveMap,
    MoveStep,
    Ordering,
    identity_map,
    map_apply,
    map_compare,
    map_par,
    map_seq,
    step_chain,
    step_par,
    step_seq,
    total_rank,
    word_compare,
    word_le,
    word_rank,
)
from .rewriting import (
    Match,
    ReductionStep,
    ReductionTrace,
    Rule,
    StepCheck,
    TraceReport,
    all_normal_forms,
    apply_match,
    builtin_rules,
    find_matches,
    first_match,
    normalize,
    validate_rule,
    verify_trace,
)
from .semantics import (
    TruthTable,
    evaluate,
    identity_table,
    is_permutation,
    truth_table,
)

__version__ = "0.1.0"
