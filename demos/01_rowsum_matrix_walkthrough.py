"""Walkthrough: localizing the spectrum of a constant-row-sum complex matrix.

A 3x3 complex matrix whose rows all sum to 2+2i.  The row sum is forced to
be an eigenvalue, and deflating the matrix (one deflation per row index)
yields strictly smaller inclusion regions than the classical disks.  This
script traces the whole pipeline: row sums, deflation, the four regions,
membership of the true eigenvalues, and the real-axis section machinery.

Run:  python demos/01_rowsum_matrix_walkthrough.py
"""

import numpy as np

from eigenloc import (
    brauer_region,
    complex_eigenvalues,
    constant_row_sum,
    deflate,
    gersgorin_region,
    real_section,
    region_contains,
    region_slack,
    rowsum_brauer_region,
    rowsum_gersgorin_region,
)
from eigenloc.regions import region_slack_grid, region_to_json

A = np.array(
    [
        [1.0, 1.0 + 1.0j, 1.0j],
        [1.0j, 2.0 + 1.0j, 0.0],
        [2.0, 1.0j, 1.0j],
    ]
)

print("matrix A:")
print(A)

gamma = constant_row_sum(A)
print(f"\nevery row sums to gamma = {gamma}  ->  gamma is an eigenvalue")

print("\ndeflating at row 1 gives a 2x2 matrix carrying the rest of the spectrum:")
print(deflate(A, 1))

spectrum = complex_eigenvalues(A)
print(f"\noracle spectrum (backward error {spectrum.max_residual:.1e}):")
for z in spectrum.values:
    print(f"  {z:.6f}")

print("\nclassical disks (center, radius):")
for disk in gersgorin_region(A).children:
    print(f"  {disk.center}  r = {disk.radius:.4f}")

refined = rowsum_gersgorin_region(A)
print("\ndeflated-disk region: intersection of per-row components;")
print("component for deflation row 1 has leaves:")
for leaf in refined.children[0].children:
    print(f"  {leaf}")

print("\nmembership of each eigenvalue (slack >= 0 means inside):")
regions = {
    "classical disks   ": gersgorin_region(A),
    "classical ovals   ": brauer_region(A),
    "deflated disks    ": refined,
    "deflated ovals    ": rowsum_brauer_region(A),
}
for name, region in regions.items():
    slacks = [region_slack(region, z) for z in spectrum.values]
    ok = all(region_contains(region, z, 1e-9) for z in spectrum.values)
    print(f"  {name} contains spectrum: {ok}   min slack = {min(slacks):+.4f}")

# The refinement is strict: sample a grid and count the area ratio.
xs = np.arange(-4.0, 5.0, 0.05)
grid = xs[None, :] + 1j * xs[:, None]
inside_classical = region_slack_grid(regions["classical disks   "], grid) >= 0
inside_refined = region_slack_grid(refined, grid) >= 0
print(
    f"\nsampled area: classical {inside_classical.mean():.3f}"
    f" vs deflated {inside_refined.mean():.3f}"
    f" (refined points outside classical: {int((inside_refined & ~inside_classical).sum())})"
)

section = real_section(refined)
print(f"\nreal-axis section of the deflated-disk region: {section}")
print("(gamma = 2+2i is complex, so only the disks' real trace survives)")

print("\nregion JSON (deflated disks, first component):")
print(region_to_json(refined)["children"][0])
