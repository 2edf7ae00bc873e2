"""Shared fixtures for the test suite."""

import functools
import os

# One BLAS thread, as the benchmark runs: with threaded OpenBLAS on a busy
# machine a small matmul can take a thousand times longer.  Set before
# numpy is imported, since the BLAS reads these variables once at load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

# 3x3 complex matrix with constant row sum 2+2i; its first deflation is
# [[1, -i], [-1, 0]].  Used across the region and oracle tests.
ROWSUM_3X3 = np.array(
    [
        [1.0, 1.0 + 1.0j, 1.0j],
        [1.0j, 2.0 + 1.0j, 0.0],
        [2.0, 1.0j, 1.0j],
    ]
)

GAMMA_3X3 = 2.0 + 2.0j


@pytest.fixture
def rowsum_matrix():
    return ROWSUM_3X3.copy()


@pytest.fixture(autouse=True)
def fresh_graph_cache(monkeypatch):
    """Each test starts, as a new process does, with an empty graph cache in
    the CLI."""
    from eigenloc import cli

    monkeypatch.setattr(cli, "_GRAPHS", cli._GraphCache())


def count_first_reads(monkeypatch, cls, name):
    """Patch the cached property ``cls.name`` so that each time it is made
    (once per instance) the instance is appended to the returned list."""
    made = []
    original = vars(cls)[name]
    counted = functools.cached_property(lambda obj: made.append(obj) or original.func(obj))
    counted.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, counted)
    return made


def random_constant_rowsum_matrix(rng, n):
    """Entries uniform in the unit square; last column fixes the row sum."""
    a = rng.random((n, n)) + 1j * rng.random((n, n))
    gamma = complex(a.sum(axis=1).mean())
    a[:, -1] += gamma - a.sum(axis=1)
    return a, gamma


def match_multisets(left, right, tol):
    """Greedy nearest matching of two complex multisets; max pair distance."""
    right = list(right)
    worst = 0.0
    for z in left:
        best = min(range(len(right)), key=lambda idx: abs(right[idx] - z))
        worst = max(worst, abs(right[best] - z))
        right.pop(best)
    assert worst <= tol, f"multisets differ by {worst:.3e} > {tol:.1e}"
    return worst


def random_region(rng):
    """Random region tree mixing disks, ovals and point sets (depth <= 3)."""
    from eigenloc.regions import (
        CassiniOval,
        Disk,
        PointSet,
        RegionIntersection,
        RegionUnion,
    )

    def leaf():
        kind = rng.integers(0, 3)
        if kind == 0:
            return Disk(
                complex(rng.uniform(-3, 3), rng.uniform(-2, 2)),
                float(rng.uniform(0, 2)),
            )
        if kind == 1:
            return CassiniOval(
                complex(rng.uniform(-3, 3), rng.uniform(-2, 2)),
                complex(rng.uniform(-3, 3), rng.uniform(-2, 2)),
                float(rng.uniform(0, 4)),
            )
        points = tuple(
            complex(rng.uniform(-3, 3), 0.0 if rng.random() < 0.5 else rng.uniform(-1, 1))
            for _ in range(rng.integers(1, 4))
        )
        return PointSet(points)

    def union():
        return RegionUnion(tuple(leaf() for _ in range(rng.integers(2, 5))))

    if rng.random() < 0.5:
        return union()
    return RegionIntersection(tuple(union() for _ in range(rng.integers(2, 4))))


# Hypothesis draws the same examples on every run and keeps no example
# database, so every test run checks the same cases.
settings.register_profile("eigenloc", derandomize=True, database=None, deadline=None)
settings.load_profile("eigenloc")
