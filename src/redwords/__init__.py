"""Reduced words of permutations and their braid and commutation classes.

The package enumerates R(w) for w in S_n, partitions it under braid or
commutation moves, builds the move graph G(w), its contractions G_c and G_b,
the class incidence graph Gamma(w) (each an ``IndexGraph``: vertex labels
and one array of index pairs per edge kind, written as DOT by
``dot_lines``), and the intersection table T(w), and checks the bounds
b + c - 1 <= |R(w)| <= b * c together with the exact characterizations and
counts of the permutations achieving either bound.
The scan harness reverifies all of it exhaustively for a whole S_n.

The names from ``classes`` and ``graphs`` are loaded on first use: those
modules load numpy, which the enumeration-free parts never need.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .characterizations import (
    catalan,
    count_lower,
    count_upper,
    lower_pattern_from_words,
    lower_predicate_pattern,
    lower_template_windows,
    upper_predicate,
    word_matches_lower_template,
)
from .coxeter_moves import (
    BRAID,
    COMMUTATION,
    INDEPENDENT,
    OVERLAPPING,
    Move,
    apply_braid,
    apply_commutation,
    classify_pair,
    neighbors,
    supports_braid,
    supports_commutation,
)
from .errors import InvariantViolation, WordCapExceeded
from .permutation import (
    MAX_N,
    Permutation,
    all_permutations,
    from_window,
    identity,
    longest_element,
    parse_window,
    window_text,
)
from .reduced_words import (
    DEFAULT_WORD_CAP,
    Word,
    WordSet,
    count_words,
    enumerate_words,
    evaluate,
    is_reduced,
    parse_word,
    word_text,
)
from .scan import (
    CHECK_GROUPS,
    ScanOptions,
    ScanRecord,
    ScanReport,
    scan,
    verify_permutation,
)
from .weak_order import (
    WeakInterval,
    conjecture_predicate,
    interval,
    interval_by_closure,
    interval_widths,
    predicts_circuit_free,
    support,
)

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys((
        "ClassPartition",
        "braid_class_shape",
        "class_closure",
        "partition_with_edges",
        "path_product_edge_count",
        "verify_braid_class_graph",
    ), "classes"),
    **dict.fromkeys((
        "Analysis",
        "IndexGraph",
        "IntersectionTable",
        "analyse",
        "build_class_graph",
        "build_gamma",
        "build_table",
        "build_word_graph",
        "contract",
        "dot_lines",
        "jump_property",
    ), "graphs"),
}

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value
