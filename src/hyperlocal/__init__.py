"""Strongly local hypergraph diffusion.

Localized quadratic and p-norm diffusions over hypergraphs with
cardinality-based splitting penalties, plus sweepcut rounding and a
small-instance oracle suite.
"""

from .hypergraph import (
    GadgetParams,
    Hypergraph,
    HypergraphFormatError,
    conductance,
    cut_value,
    parse_gadget_lines,
    parse_hypergraph,
    set_metrics,
    splitting_penalty,
)
from .quadratic import (
    DiffusionConfig,
    DiffusionState,
    SolveResult,
    ledger_bound,
    solve,
)
from .pnorm import pnorm_solve
from .reduction import ReducedGraph, build_localized_cut_graph, build_reduced_graph
from .sweep import SweepProfile, boundary_delta_bar, prf1, sweepcut
from .synth import SplitMix64, planted_hypergraph, sample_seeds

__version__ = "0.1.0"

__all__ = [
    "GadgetParams",
    "Hypergraph",
    "HypergraphFormatError",
    "conductance",
    "cut_value",
    "parse_gadget_lines",
    "parse_hypergraph",
    "set_metrics",
    "splitting_penalty",
    "DiffusionConfig",
    "DiffusionState",
    "SolveResult",
    "ledger_bound",
    "solve",
    "pnorm_solve",
    "ReducedGraph",
    "build_localized_cut_graph",
    "build_reduced_graph",
    "SweepProfile",
    "boundary_delta_bar",
    "prf1",
    "sweepcut",
    "SplitMix64",
    "planted_hypergraph",
    "sample_seeds",
]
