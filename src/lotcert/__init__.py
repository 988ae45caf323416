"""Combinatorial asphericity certificates for LOT/LOF presentation complexes."""

from .arborescence import Branching, two_disjoint_branchings, verify_branching
from .certify import (
    Certificate,
    certify_lof,
    certify_relative,
    lbf_check,
    strong_lbf_check,
)
from .link_complex import (
    AngleAssignment,
    CurvatureReport,
    Multigraph,
    build_link,
    curvature,
    is_forest,
    is_relative_forest,
    verify_coloring_test,
    verify_relative_coloring_test,
)
from .log_model import (
    Edge,
    Log,
    LogClass,
    ParseError,
    SubLog,
    bad_sub_lot_witnesses,
    classify,
    enumerate_sub_lots,
    make_log,
    maximal_proper_sub_lots,
    non_label_vertices,
    parse_log,
    quotient_lof,
    reduce_log,
    reducedness_report,
    serialize_log,
)
from .selection import SelectionGraph, build_selection_graph

__version__ = "0.1.0"
