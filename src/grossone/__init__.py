"""Exact arithmetic over numbers with infinite, finite and infinitesimal
parts, the sets they measure, series with explicitly counted addends, and the
classic puzzles those tools dissolve."""

from .errors import GrossoneError
from .gnum import (
    G,
    GROSSONE,
    GrossNumber,
    GrossTerm,
    NumberClass,
    Parity,
    compare,
    div_exact,
    eval_at,
    exp_gross,
    floor_div_mod,
    format_number,
    linear_gross_parts,
    normalize,
    nth_root,
    parity,
    pow_int,
    term,
)
from .sets import (
    EMPTY,
    AdjustedSet,
    GrossAP,
    RootCount,
    add_finite,
    ap_nat,
    cardinality,
    couples_count,
    element_at,
    evens,
    integers_set,
    intersect,
    last_element,
    member,
    naturals,
    odds,
    remove_finite,
    scale,
    squares_count,
)
from .series import (
    GrandiResult,
    RamanujanAudit,
    ap_sum,
    geometric,
    grandi,
    grandi_rearranged,
    infinitesimal_sum,
    powers_of_two_sum,
    ramanujan_audit,
    triangular,
)
from .paradoxes import (
    Claim,
    LampState,
    ParadoxReport,
    galileo_report,
    hilbert_accommodate,
    multiplication_report,
    thomson_lamp,
    torricelli,
)
from .exprlang import evaluate, print_value, value_json

__version__ = "0.1.0"
