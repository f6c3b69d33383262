"""The engine is dependency-free: src/moravak imports only the standard
library and itself, and every public name in it has a caller there."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "moravak"


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SOURCE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SOURCE)))
def test_engine_imports_only_the_standard_library(path):
    assert imported_packages(path) - set(sys.stdlib_module_names) - {"moravak"} == set()


# public names with no caller in src/moravak that stay: paper content
# that tests check, with the reason for each
KEEP = {
    "ahss.Page.cell": "the E^{p,q} cells of the paper's bigrading",
    "ahss.Page.differential_matrix": "the matrix of d at (p, q)",
    "fgl.FGL.formal_sum": "the formal sum of the 2-series expansion",
    "fgl.change_coordinates": "coordinate changes, under which height is invariant",
    "gf2.invert_columns": "inverse of a GF(2) map",
    "rbk.b_degree": "the degree of b_k in R(b_k)",
    "steenrod.adem_spot_check": "Sq^1 Sq^1 = 0 and Sq^1 Sq^2 = Sq^3 on a table",
    "steenrod.check_derivation": "Q_j acts as a derivation",
    "steenrod.sq_z": "beta Sq^{2k} and its vanishing certificate",
}


def parsed_modules() -> dict[str, ast.Module]:
    """module name -> its syntax tree, for every module of src/moravak."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SOURCE.rglob("*.py"))}


def public_definitions(modules: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """module.name or module.Class.name -> definition node, for every
    public function and class of each module and every public method or
    property of its public classes."""
    out = {}
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            out[f"{stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                out.update((f"{stem}.{node.name}.{member.name}", member)
                           for member in node.body
                           if isinstance(member, ast.FunctionDef) and member.name[0] != "_")
    return out


def references(modules: dict[str, ast.Module]) -> dict[str, list[ast.AST]]:
    """identifier -> the ast.Name and ast.Attribute nodes that carry it."""
    out: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append(node)
    return out


def traced_names() -> set[str]:
    """The dotted targets that bench/tracer.py binds by string."""
    return set(re.findall(r'"([a-z0-9]+(?:\.\w+)+)"', (ROOT / "bench" / "tracer.py").read_text()))


def test_every_public_name_has_a_caller_in_src():
    """A public name that nothing in src/moravak refers to, outside its
    own definition, is API that only tests call: delete it and test the
    route cli uses.  Exempt are the cmd_* subcommands, which the parser
    dispatches to, the names bench/tracer.py binds and KEEP.  The match
    is by identifier, so a name shared with another identifier (a local,
    a field, another class's method) counts as called and is not caught."""
    modules = parsed_modules()
    definitions = public_definitions(modules)
    assert set(KEEP) <= set(definitions)
    refs = references(modules)
    exempt = set(KEEP) | traced_names()
    uncalled = []
    for qual, definition in definitions.items():
        name = qual.rsplit(".", 1)[1]
        own = {id(node) for node in ast.walk(definition)}
        if qual not in exempt and not name.startswith("cmd_") and \
                all(id(node) in own for node in refs.get(name, ())):
            uncalled.append(qual)
    assert uncalled == []
