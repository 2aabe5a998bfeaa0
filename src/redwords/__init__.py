"""Reduced words of permutations and their braid and commutation classes.

The package enumerates R(w) for w in S_n, partitions it under braid or
commutation moves, builds the move graph G(w), its contractions G_c and G_b,
the class incidence graph Gamma(w), and the intersection table T(w), and
checks the bounds b + c - 1 <= |R(w)| <= b * c together with the exact
characterizations and counts of the permutations achieving either bound.
The scan harness reverifies all of it exhaustively for a whole S_n.
"""

from .characterizations import (
    BoundStatus,
    bound_status,
    catalan,
    count_lower,
    count_upper,
    is_circuit_free,
    lower_pattern_from_words,
    lower_predicate_pattern,
    lower_template_windows,
    upper_predicate,
    word_matches_lower_template,
)
from .classes import (
    BraidClassShape,
    ClassPartition,
    braid_class_shape,
    class_closure,
    partition,
    partition_with_edges,
    path_product_edge_count,
    verify_braid_class_graph,
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
from .graphs import (
    Analysis,
    Edge,
    IntersectionTable,
    LabeledGraph,
    analyse,
    build_gamma,
    build_table,
    build_word_graph,
    contract,
    export_dot,
    is_bipartite,
    is_connected,
    is_tree,
    jump_property,
    verify_jump_property,
)
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
    check_conjecture,
    conjecture_predicate,
    interval,
    interval_by_closure,
    support,
)

__version__ = "0.1.0"
