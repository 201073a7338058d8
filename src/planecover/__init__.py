"""Workbench for planar covers of K(1,2,2,2).

Verifies covers and plane semi-covers, analyzes embedded K4-cover
fragments for the structures that rule them out, exhaustively searches
the small voltage-assignment spaces with replayable certificates, and
checks the counting bounds that exclude every even fold below 14.
"""

from .bounds import (
    check_face_census_identity,
    fold_verdict,
    interior_triangle_bound,
    long_cycle_bounds,
)
from .covers import (
    SemiCover,
    VoltageAssignment,
    derive,
    is_connected_cover,
    label_projection,
    lift_subgraph,
    normalized_assignment,
    verify_cover,
    verify_semicover,
)
from .embedding import (
    KuratowskiWitness,
    PlaneEmbedding,
    is_planar,
    planarity,
)
from .graphs import (
    BaseGraph,
    LabeledGraph,
    connectivity,
    find_cycles_covering,
    labels_adjacent,
    make_base,
)
from .search import (
    BudgetExceeded,
    SearchSpec,
    analyze_fragment_candidate,
    enumerate_covers,
    enumerate_quotients,
    min_beads,
    search_k4_fragments,
)
from .structure import (
    QuotientGraph,
    StructureReport,
    admissibility_report,
    check_exclusions,
    detect_strings,
    face_label_pattern,
    is_necklace,
    quotient_graph,
    refine_faces,
)

__version__ = "0.1.0"
