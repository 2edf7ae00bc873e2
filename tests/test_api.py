"""The package's public surface: what ``eigenloc`` re-exports, and what it no longer has."""

import ast
import importlib
from pathlib import Path

import pytest

import eigenloc

# retired from the API: second copies of formulas the library owns elsewhere,
# and helpers that no caller used
RETIRED = ("trace_bounds", "TraceStats", "DegreeProfile", "degrees", "randic_index",
           "common_neighbors", "charpoly", "row_sums", "check_region",
           "spectrum_to_json", "deleted_row_sums", "region_min_slack", "deflation_table")


def test_public_surface():
    tree = ast.parse(Path(eigenloc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"eigenloc.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(eigenloc, alias.name) is getattr(module, alias.name)
    for name in ("eigenloc", "eigenloc.graphs", "eigenloc.regions", "eigenloc.bounds",
                 "eigenloc.oracle", "eigenloc.cli"):
        module = importlib.import_module(name)
        for retired in RETIRED:
            assert retired not in getattr(module, "__all__", ())
            with pytest.raises(ImportError):
                exec(f"from {name} import {retired}", {})
