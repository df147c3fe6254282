"""Exact state-sum invariants of oriented tangles in Morse position."""

from .laurent import LaurentPoly
from .diagram import (ClassVector, ConsistencyError, DiagramVector,
                      FlatDiagram, canonical_rep, coordinates, enumerate_basis,
                      glue_evaluate, inner_product, motzkin, saddle_element)
from .tangle import (MorseWord, R1Move, R2Move, R3Move, Slice, apply_move,
                     braid_to_tangle, parse, turning_number)
from .statesum import base_tables, evaluate_dp, evaluate_naive, expand_states
from .invariant import NormalizedResult, alexander_polynomial, tangle_invariant
from .oracle import KNOT_CORPUS, alexander_via_burau, burau_reduced

__version__ = "0.1.0"
