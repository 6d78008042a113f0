"""Three-braid branched double covers: Baldwin families, white-graph group
presentations, and machine-checked non-left-orderability certificates."""

from .braid import (BraidWord, parse_braid, format_braid, expand_fulltwist,
                    exponent_sum, mirror, classify_baldwin,
                    normalize_type1_d1, normalize_type1_dm1, replay_moves)
from .diagram import (CheckerboardGraph, DecoratedCycleGraph,
                      closure_white_graph, cycle_graph_from_params,
                      to_decorated, goeritz_matrix)
from .presentation import (GroupPresentation, AbelianInvariants,
                           greene_presentation, cycle_presentation,
                           abelianize, tietze_simplify)
from .rewrite import (FreeWord, solve_relation, verify_lemma_x, verify_lemma_y,
                      verify_lemma_left, verify_lemma_right,
                      verify_product_relation)
from .ordercheck import (certify_cycle_non_lo, verify_certificate,
                         todd_coxeter, infinite_witness, torsion_non_lo)

__version__ = "0.1.0"
