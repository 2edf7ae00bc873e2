"""Eigenvalue localization for complex matrices and graph matrices.

Four layers:

* :mod:`eigenloc.graphs`  -- graphs, named families, the three graph matrices.
* :mod:`eigenloc.regions` -- disk/oval inclusion regions, constant-row-sum
  deflation, membership and real-axis sections.
* :mod:`eigenloc.bounds`  -- closed-form eigenvalue bounds with reports.
* :mod:`eigenloc.oracle`  -- reference eigensolvers with residual certificates.
"""

from .graphs import (
    Graph,
    DegreeProfile,
    GraphMatrixKind,
    StructureReport,
    parse_edge_list,
    generate,
    degrees,
    common_neighbors,
    randic_index,
    build_matrix,
    classify,
)
from .regions import (
    Disk,
    CassiniOval,
    PointSet,
    RegionUnion,
    RegionIntersection,
    RealSection,
    RegionUnavailable,
    row_sums,
    constant_row_sum,
    deflate,
    gersgorin_region,
    brauer_region,
    rowsum_gersgorin_region,
    rowsum_brauer_region,
    region_slack,
    region_contains,
    real_section,
    section_contains,
)
from .bounds import (
    TraceStats,
    BoundInterval,
    BoundReport,
    trace_bounds,
    bounds_report,
)
from .oracle import (
    Spectrum,
    symmetric_eigenvalues,
    normalized_spectrum,
    graph_spectrum,
    charpoly,
    complex_eigenvalues,
)

__version__ = "0.1.0"
