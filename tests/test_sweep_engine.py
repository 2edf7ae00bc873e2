"""Certify the sweep's reference oracle against the package's eigensolvers.

The soundness sweep (``tests/_corpus.check_graph_with_library``) checks each
bound against LAPACK spectra of matrices it builds from the edge list, apart
from ``build_matrix``.  This module checks that oracle against the package's
own tridiagonal QL route (``Graph.spectrum``) on the connected 6-vertex atlas
graphs, for every kind, whether or not a bound applies to the graph.
"""

import numpy as np

from eigenloc.graphs import GraphMatrixKind, classify

from ._corpus import _lapack_spectrum, atlas_graphs


def test_batch_oracle_matches_package_oracle():
    graphs = [g for _, g in atlas_graphs() if g.n == 6 and classify(g).connected]
    assert len(graphs) == 112  # connected graphs on 6 vertices (OEIS A001349)
    for g in graphs:
        for kind in GraphMatrixKind:
            ours = g.spectrum(kind)
            gap = np.max(np.abs(_lapack_spectrum(g, kind) - np.array(ours.values)))
            assert gap <= 1e-9, (kind.value, g.edges, gap)
