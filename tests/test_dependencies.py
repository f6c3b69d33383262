"""The engine is dependency-free: src/moravak imports only the standard
library and itself, every name it imports is read, and every public name
in it has a caller there."""

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


@pytest.mark.parametrize("path", sorted(SOURCE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SOURCE)))
def test_every_imported_name_is_read(path):
    """A name an import binds is read in the module that imports it; the
    __future__ switches bind none."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert bound - read == set()


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
    """module name -> its syntax tree, for every module of src/moravak; a
    package's __init__.py goes by the package's name."""
    return {(path.parent.name if path.name == "__init__.py" else path.stem):
            ast.parse(path.read_text(), str(path))
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


def module_references(modules: dict[str, ast.Module]) -> dict[str, list[ast.AST]]:
    """module.name -> the nodes that refer to that module-level name: a bare
    name in its own module, a name imported from the module, or an
    attribute on a name the module is imported as (``from . import gf2``)."""
    out: dict[str, list[ast.AST]] = {}
    for stem, tree in modules.items():
        imported: dict[str, str] = {}  # local name -> module.name
        aliases: dict[str, str] = {}  # local name -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module.rsplit(".", 1)[-1] if node.module else "moravak"
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source == "moravak" and alias.name in modules:
                        aliases[local] = alias.name
                    else:
                        imported[local] = f"{source}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                qual = imported.get(node.id, f"{stem}.{node.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                qual = f"{aliases[node.value.id]}.{node.attr}"
            else:
                continue
            out.setdefault(qual, []).append(node)
    return out


def traced_names() -> set[str]:
    """The dotted targets that bench/tracer.py binds by string."""
    return set(re.findall(r'"([a-z0-9]+(?:\.\w+)+)"', (ROOT / "bench" / "tracer.py").read_text()))


def test_every_public_name_has_a_caller_in_src():
    """A public name that nothing in src/moravak refers to, outside its
    own definition, is API that only tests call: delete it and test the
    route cli uses.  Exempt are the cmd_* subcommands, which the parser
    dispatches to, the names bench/tracer.py binds and KEEP.  A
    module-level function or class is resolved through its module (see
    module_references), so a local or a method of the same name does not
    count.  A method is matched by identifier, so one that shares its
    name with another identifier (a local, a field, another class's
    method) counts as called and is not caught."""
    modules = parsed_modules()
    definitions = public_definitions(modules)
    assert set(KEEP) <= set(definitions)
    refs, module_refs = references(modules), module_references(modules)
    exempt = set(KEEP) | traced_names()
    uncalled = []
    for qual, definition in definitions.items():
        name = qual.rsplit(".", 1)[1]
        nodes = module_refs.get(qual, ()) if qual.count(".") == 1 else refs.get(name, ())
        own = {id(node) for node in ast.walk(definition)}
        if qual not in exempt and not name.startswith("cmd_") and \
                all(id(node) in own for node in nodes):
            uncalled.append(qual)
    assert uncalled == []


EXIT_CODES = {"ParseError": 2, "ValidationError": 3, "ComputationError": 4,
              "HypothesisViolatedError": 5}


def test_one_error_class_per_exit_code():
    """moravak.errors holds MoravakError and one subclass per exit code,
    and no module of src/moravak derives a class from any of them: the
    message, not the class, names the condition that failed."""
    from moravak import errors
    modules = parsed_modules()
    defined = [node.name for node in modules["errors"].body if isinstance(node, ast.ClassDef)]
    assert defined == ["MoravakError", *EXIT_CODES]
    for name, code in EXIT_CODES.items():
        cls = getattr(errors, name)
        assert cls.__bases__ == (errors.MoravakError,) and cls.exit_code == code
    derived = [f"{stem}.{node.name}" for stem, tree in modules.items() if stem != "errors"
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               if any(getattr(base, "id", getattr(base, "attr", None)) in defined
                      for base in node.bases)]
    assert derived == []
