"""The public library surface, pinned name by name.

Dropping or renaming a public name is an API change: it must show up here
as an edited list, not pass unnoticed.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import meanderkit

MODULE_ALL = {
    "core": [
        "Composition",
        "MeanderType",
        "MeanderGraph",
        "ComponentSummary",
        "MeanderError",
        "ParseError",
        "PreconditionError",
        "NotFrobeniusError",
        "ConsistencyError",
        "parse_type",
        "build_graph",
        "components",
        "index_naive",
    ],
    "spectrum": [
        "Spectrum",
        "SpectrumFlags",
        "admissible_pairs",
        "measure",
        "spectrum",
        "classify",
        "block_measures",
        "spectrum_to_json",
    ],
    "lie": [
        "SeaweedPattern",
        "Functional",
        "PrincipalElement",
        "seaweed_positions",
        "kirillov_matrix",
        "index_oracle",
        "canonical_functional",
        "principal_element",
        "ad_spectrum",
        "cybe_residual",
    ],
    "winding": [
        "Move",
        "UpMove",
        "RefinedStep",
        "HomotopySymbol",
        "PlaneHomotopyType",
        "WindUpError",
        "step_simplified",
        "signature_simplified",
        "step_refined",
        "step_refined_full",
        "signature_refined",
        "index_from_signature",
        "is_frobenius",
        "homotopy_type",
        "wind_up",
        "apply_up_move",
        "hat_reversed",
        "enumerate_meanders",
        "generate_frobenius",
        "signature_to_text",
        "parse_signature",
        "up_moves_to_text",
        "parse_up_moves",
    ],
    "formulas": [
        "FourBlockType",
        "index_two_block",
        "index_four_block",
        "family_parabolic",
        "family_biparabolic",
    ],
    "lab": [
        "GcdCondition",
        "ScanReport",
        "five_block_meanders",
        "search_gcd_conditions",
        "scan_unimodality",
        "scan_block_measures",
        "load_config",
    ],
    "cli": ["run", "main"],
}

# what `import meanderkit` binds, submodules aside
PACKAGE_NAMES = {
    "ComponentSummary",
    "Composition",
    "ConsistencyError",
    "FourBlockType",
    "GcdCondition",
    "HomotopySymbol",
    "MeanderError",
    "MeanderGraph",
    "MeanderType",
    "Move",
    "NotFrobeniusError",
    "ParseError",
    "PlaneHomotopyType",
    "PreconditionError",
    "PrincipalElement",
    "RefinedStep",
    "ScanReport",
    "SeaweedPattern",
    "SpectrumFlags",
    "UpMove",
    "WindUpError",
    "ad_spectrum",
    "admissible_pairs",
    "apply_up_move",
    "block_measures",
    "build_graph",
    "canonical_functional",
    "classify",
    "components",
    "cybe_residual",
    "enumerate_meanders",
    "family_biparabolic",
    "family_parabolic",
    "five_block_meanders",
    "format_type",
    "generate_frobenius",
    "hat_reversed",
    "homotopy_type",
    "index_four_block",
    "index_from_signature",
    "index_naive",
    "index_oracle",
    "index_two_block",
    "is_frobenius",
    "kirillov_matrix",
    "load_config",
    "measure",
    "parse_signature",
    "parse_type",
    "parse_up_moves",
    "principal_element",
    "scan_block_measures",
    "scan_unimodality",
    "search_gcd_conditions",
    "seaweed_positions",
    "signature_refined",
    "signature_simplified",
    "signature_to_text",
    "spectrum",
    "spectrum_to_json",
    "step_refined",
    "step_refined_full",
    "step_simplified",
    "up_moves_to_text",
    "wind_up",
}


@pytest.mark.parametrize("name", sorted(MODULE_ALL))
def test_module_all_is_pinned(name):
    module = importlib.import_module(f"meanderkit.{name}")
    assert module.__all__ == MODULE_ALL[name]
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_names_are_pinned():
    public = {
        n
        for n, value in vars(meanderkit).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE_NAMES


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; __future__ imports aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os, re\n"
        "from .core import a, b as c\n"
        "re.x(c)\n"
    )
    assert _unused_imports(source) == ["a", "os"]


def _asserts(source: str) -> list[int]:
    """Lines of the assert statements and AssertionError names of a module:
    python -O drops the first, and every exit 3 is a ConsistencyError."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    )


def test_asserts_are_flagged():
    source = "assert x\nraise AssertionError('y')\nz = AssertionErrors\n"
    assert _asserts(source) == [1, 2]


@pytest.mark.parametrize(
    "path", sorted(Path(meanderkit.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_asserts_in_the_package(path):
    assert _asserts(path.read_text(encoding="utf-8")) == []


# the package __init__ imports only to re-export, so it is left out
@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(meanderkit.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


# the up-moves that make the edges of the reverse-search tree
_TREE_TAGS = {"~F0", "~C0", "~B0", "~R0", "~P0"}


def _tag_readers(source: str) -> list[str]:
    """Top-level statements of a module that hold a tree tag as a string
    constant: a function or class by its name, any other by its line."""
    return sorted(
        getattr(node, "name", str(node.lineno))
        for node in ast.parse(source).body
        if any(isinstance(c, ast.Constant) and c.value in _TREE_TAGS for c in ast.walk(node))
    )


def test_tag_readers_are_flagged():
    source = (
        '"""~F0 in a docstring"""\n'
        "def f():\n"
        "    def g(tag):\n"
        "        return tag == '~R0'\n"
        "x = ('~P0', '~F')\n"
        "def h(): return '~F'\n"
    )
    assert _tag_readers(source) == ["5", "f"]


def test_lab_reads_the_tree_tags_in_one_function():
    # one switch on the up-move tag: every scan takes what an edge does
    # from lab._child
    source = (Path(meanderkit.__file__).parent / "lab.py").read_text(encoding="utf-8")
    assert _tag_readers(source) == ["_child"]


def _calls(source: str, function: str) -> set[str]:
    """Names that a module-level function of a module calls."""
    (node,) = (n for n in ast.parse(source).body if getattr(n, "name", None) == function)
    return {
        c.func.id
        for c in ast.walk(node)
        if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
    }


def test_the_refined_step_delegates_the_shared_cases():
    # one case table: C, B, R and P of the refined step are the simplified
    # step's, and the one finger lives on the bottom stack
    source = (Path(meanderkit.__file__).parent / "winding.py").read_text(encoding="utf-8")
    assert "_step_simplified_raw" in _calls(source, "_step_refined_raw")
    defined = {getattr(node, "name", None) for node in ast.parse(source).body}
    assert not defined & {"_set_first", "_pop_first"}
