"""Edge-maximal non-r-partite graphs avoiding generalized books.

The package builds the extremal families (pentagon blow-ups joined with
balanced complete multipartite graphs), evaluates the closed-form optimum,
decides the defining predicates (book containment, r-colorability,
color-criticality), and independently verifies the closed form at desk scale
with exhaustive and branch-and-bound search oracles.
"""

from .canon import canonical_form, dedup_by_isomorphism, is_isomorphic
from .checkers import (BookWitness, ColoringWitness, chromatic_number,
                       contains_clique, contains_generalized_book,
                       contains_subgraph, is_color_critical,
                       is_nonpartite_book_free, is_r_colorable)
from .constructions import (c5_blowup, complete_multipartite,
                            extremal_family_graphs, family_c5_1, family_c5_2,
                            family_c5_3, family_c5_join, family_g1, family_g2,
                            family_g3, generalized_book, near_complete_ks,
                            turan_graph)
from .formulas import (CaseParams, ExtremalCase, ex_nonpartite_value,
                       extremal_case, intersection_lower_bound,
                       turan_edge_count, turan_sandwich_holds)
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .graphs import (Graph, add_edge, empty_graph, from_edges, join, relabel,
                     remove_edge)
from .search import (ExtremalReport, SearchBudget, VerifyRecord,
                     branch_bound_extremal, enumerate_extremal,
                     family_optimizer, generate_graphs, verify_theorem)

__version__ = "0.1.0"
