"""Tower of invariants of a connected plane bipartite graph.

Starting from a rotation-system description of a plane bipartite graph, the
package builds the binary tree of spanning arborescences of the directed
planar dual, and derives from it a shelled triangulation of the root
polytope (with f- and h-vectors), the parking-function enumerator of the
dual, and the top coefficient of the HOMFLY polynomial of the induced
special alternating link.  An independent skein-recursion HOMFLY oracle for
small diagrams lets every identity be checked exactly.
"""

from types import ModuleType as _ModuleType

from .laurent import Laurent1, Laurent2, conway_and_alexander
from .planegraph import (
    GraphInputError,
    InvariantError,
    PlaneBipartiteGraph,
    DualDigraph,
    SignedBlock,
    parse_plane_graph,
    build_dual,
    overlay_dot,
    check_strong_connectivity,
    biconnected_blocks,
    block_subgraph,
)
from .arborescence import (
    ArbNode,
    ArbTree,
    arborescence_count,
    augmenting_edge,
    build_arb_tree,
    clocked_arborescence,
    spanning_arborescences_bruteforce,
    type_one_leaves,
)
from .rootpolytope import (
    Triangulation,
    compatible,
    coordinate_matrix,
    hypertrees,
    spanning_trees,
    triangulation_from_arbtree,
    verify_shelling,
    f_vector,
    f_from_attach_counts,
    h_from_f,
    h_from_shelling,
)
from .parking import (
    is_parking_function,
    enumerate_parking,
    parking_enumerator,
    parking_for_dual,
    parking_from_leaf,
    arborescence_from_parking,
    leaf_enumerator,
)
from .homfly import (
    LinkDiagram,
    DecoratedSubgraph,
    TopPolynomial,
    CrossingCapExceeded,
    UNLINK_FACTOR,
    decorated_subgraph_at,
    median_diagram,
    homfly_skein,
    top_coefficient,
    top_via_tree,
    top_via_h,
    top_via_p,
    homogeneous_top,
    morton_audit,
)
from .verify import VerifyReport, verify_graph
from .gen import random_plane_bipartite, corpus, corpus_documents

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
