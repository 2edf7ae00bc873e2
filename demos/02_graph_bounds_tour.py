"""Tour of the closed-form eigenvalue bounds across graph families.

For each of a handful of graphs, runs every applicable bound for the
adjacency, normalized-adjacency and Laplacian matrices, and lines the
intervals up against the eigensolver oracle.  Sharp cases (complete
graphs, complete bipartite graphs, stars) come out with zero slack.

Run:  python demos/02_graph_bounds_tour.py
"""

from eigenloc import GraphMatrixKind, bounds_report, generate
from eigenloc.bounds import TARGET_POSITION

GRAPHS = [
    ("complete K_6", generate("complete", n=6)),
    ("cycle C_8", generate("cycle", n=8)),
    ("star K_{1,5}", generate("star", n=6)),
    ("complete bipartite K_{3,4}", generate("complete_bipartite", p=3, q=4)),
    ("Petersen", generate("petersen")),
    ("circulant C_12(1,2)", generate("circulant", n=12, connections=(1, 2))),
]


for label, g in GRAPHS:
    print(f"\n=== {label}  (n={g.n}, m={g.m}) ===")
    for kind in GraphMatrixKind:
        report = bounds_report(g, kind)
        if not report.bounds:
            skips = ", ".join(f"{t}: {r}" for t, r in report.skipped)
            print(f"  {kind.value:<11} nothing applies ({skips})")
            continue
        values = g.spectrum(kind).values
        print(f"  {kind.value}:")
        for b in report.bounds:
            value = values[TARGET_POSITION[b.target]]
            slack = min(value - b.lower, b.upper - value)
            marker = "sharp" if slack <= 1e-9 else f"slack {slack:.3f}"
            print(
                f"    {b.theorem:<7} {b.target:<16} "
                f"[{b.lower:+.4f}, {b.upper:+.4f}]  oracle {value:+.4f}  ({marker})"
            )
        for tag, reason in report.skipped:
            print(f"    {tag:<7} skipped: {reason}")
