"""Line-oriented input files for spaces, manifolds and modules.

A space file is sectioned text; ``#`` starts a comment.  Sections:

    [generators]   name degree [polynomial|exterior]
    [relations]    one sum-of-monomials expression per line
    [sq]           gen i expr        (Sq^i of a generator, 0 < i < |gen|)
    [integral]     degree expr      (spanning entries of the integral image)
    [metadata]     cap/topdegree/dimension N, flags ..., w i expr,
                   lambda expr, pairing expr, torsion expr, index expr bit
    [boundary-generators], [boundary-relations], [boundary-sq]
    [restriction]  gen expr         (image of a total-space generator)

Manifold keys in [metadata] upgrade the result to ManifoldData.  A file
whose first non-blank byte is ``{`` is parsed as the equivalent JSON
document instead.  Module files ([module] and [operator k] sections) go
through the same section and integer readers: a section appears once,
and every diagnostic carries its line number (JSON rows have none).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .ahss import SpaceModel
from .errors import ComputationError, ParseError, ValidationError
from .f2alg import (
    EXTERIOR,
    POLYNOMIAL,
    AlgebraMap,
    GradedElement,
    GradedGenerator,
    PresentedAlgebra,
    parse_element,
)
from .obstruct import IndexTable, ManifoldData, PairModel
from .rbk import RbkModule, TensorModule
from .steenrod import IntegralityData, SqAction
from .twistgroup import _check_factors

# module files of higher rank are refused before any matrix is built;
# validating truncation K costs about K^2 * rank^2
MAX_MODULE_RANK = 24

_KIND_ALIASES = {
    "polynomial": POLYNOMIAL, "poly": POLYNOMIAL,
    "exterior": EXTERIOR, "ext": EXTERIOR,
}

_SECTIONS = {
    "generators", "relations", "sq", "integral", "metadata",
    "boundary-generators", "boundary-relations", "boundary-sq", "restriction",
}

_JSON_FIELDS = ("generators", "relations", "sq", "integral", "metadata", "boundary",
                "restriction")


@dataclass
class ParsedSpace:
    model: object  # SpaceModel | ManifoldData
    index: Optional[IndexTable]


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err}") from None


def _int(text: str, line: int | None, message: str, allowed=None) -> int:
    """The integer text spells, if it is one of the allowed values."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or (allowed is not None and value not in allowed):
        raise ParseError(message, line)
    return value


def _split(line: str, lineno: int | None, count: int, expected: str) -> list[str]:
    """The count whitespace-separated fields of line; the last takes the rest."""
    parts = line.split(None, count - 1)
    if len(parts) != count:
        raise ParseError(f"expected: {expected}", lineno)
    return parts


def _read_sections(text: str, section_key) -> dict:
    """Rows (line number, text) of each section, keyed by
    section_key(name, line), which returns None for an unknown name.
    Comments and blank lines are dropped."""
    sections: dict = {}
    rows = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip().lower()
            key = section_key(name, lineno)
            if key is None:
                raise ParseError(f"unknown section [{name}]", lineno)
            if key in sections:
                raise ParseError(f"repeated section [{name}]", lineno)
            rows = sections[key] = []
        elif rows is None:
            raise ParseError("content before the first section header", lineno)
        else:
            rows.append((lineno, line))
    return sections


def _module_section(name: str, lineno: int, explicit: dict) -> str | int | None:
    """'module', or the factor index of an [operator k] block: 0 for a
    bare [operator].  Records the line of each explicit index in explicit."""
    if name == "module":
        return name
    if not name.startswith("operator"):
        return None
    rest = name[len("operator"):].strip()
    if not rest:
        return 0
    k = _int(rest, lineno, f"bad operator index {rest!r}")
    explicit[k] = lineno
    return k


def _shaped(value, kind: type, where: str):
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ParseError(f"bad JSON document: {where} must be {what}")
    return value


def _json_to_sections(doc: dict) -> dict[str, list[tuple[None, str]]]:
    """Re-encode a JSON document as section lines so both paths share
    one validation and construction route."""
    out: dict[str, list[tuple[None, str]]] = {}

    def emit(section: str, line: str):
        out.setdefault(section, []).append((None, line))

    def field(block: dict, key: str, kind: type, where: str):
        return _shaped(block.get(key, kind()), kind, where + key)

    boundary = field(doc, "boundary", dict, "")
    for prefix, block, fields in (("", doc, _JSON_FIELDS),
                                  ("boundary-", boundary, _JSON_FIELDS[:3])):
        where = prefix.replace("-", ".")
        unknown = sorted(set(block) - set(fields))
        if unknown:
            raise ParseError(f"bad JSON document: unknown field {where}{unknown[0]}")
        for row in field(block, "generators", list, where):
            emit(prefix + "generators",
                 " ".join(str(x) for x in _shaped(row, list, where + "generators row")))
        for expr in field(block, "relations", list, where):
            emit(prefix + "relations", str(expr))
        for gen, table in field(block, "sq", dict, where).items():
            for i, expr in _shaped(table, dict, f"{where}sq.{gen}").items():
                emit(prefix + "sq", f"{gen} {i} {expr}")
    for degree, exprs in field(doc, "integral", dict, "").items():
        for expr in _shaped(exprs, list, f"integral.{degree}"):
            emit("integral", f"{degree} {expr}")
    for key, value in field(doc, "metadata", dict, "").items():
        if key == "w":
            for i, expr in _shaped(value, dict, "metadata.w").items():
                emit("metadata", f"w {i} {expr}")
        elif key == "flags":
            emit("metadata", "flags " + " ".join(
                str(f) for f in _shaped(value, list, "metadata.flags")))
        elif key in ("torsion", "index"):
            for row in _shaped(value, list, f"metadata.{key}"):
                emit("metadata", f"{key} {row}")
        else:
            emit("metadata", f"{key} {value}")
    for gen, expr in field(doc, "restriction", dict, "").items():
        emit("restriction", f"{gen} {expr}")
    return out


def _build_algebra(sections, prefix: str, cap: int) -> tuple[PresentedAlgebra, SqAction]:
    """The algebra and Sq action of the total space (prefix '') or of
    the boundary (prefix 'boundary-')."""
    gens = []
    for lineno, line in sections[prefix + "generators"]:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError("expected: name degree [kind]", lineno)
        name, degree = parts[0], parts[1]
        kind = _KIND_ALIASES.get(parts[2].lower()) if len(parts) == 3 else POLYNOMIAL
        if kind is None:
            raise ParseError(f"unknown generator kind {parts[2]!r}", lineno)
        gens.append(GradedGenerator(name, _int(degree, lineno, f"bad degree {degree!r}"),
                                    kind))
    relations = [parse_element(line, lineno)
                 for lineno, line in sections[prefix + "relations"]]
    algebra = PresentedAlgebra(gens, relations, cap)
    table: dict[str, dict[int, GradedElement]] = {}
    for lineno, line in sections[prefix + "sq"]:
        gen, i, expr = _split(line, lineno, 3, "generator i expression")
        i = _int(i, lineno, f"bad Sq index {i!r}")
        table.setdefault(gen, {})[i] = parse_element(expr, lineno)
    return algebra, SqAction(algebra, table)


def parse_file(path: str | Path) -> ParsedSpace:
    text = _read(path)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
            raise ParseError(f"bad JSON: {err}") from None
        found = _json_to_sections(doc)
    else:
        found = _read_sections(text, lambda name, _: name if name in _SECTIONS else None)
    sections = {s: [] for s in _SECTIONS} | found

    meta: dict[str, object] = {"flags": [], "w": {}, "torsion": [], "index": []}
    for lineno, line in sections["metadata"]:
        key, rest = (line.split(None, 1) + [""])[:2]
        key = key.lower()
        if key in ("cap", "topdegree", "dimension"):
            meta[key] = _int(rest, lineno, f"{key} expects an integer")
        elif key == "flags":
            meta["flags"] = rest.split()
        elif key == "w":
            i, expr = _split(rest, lineno, 2, "w i expression")
            meta["w"][_int(i, lineno, f"bad w index {i!r}")] = parse_element(expr, lineno)
        elif key in ("lambda", "pairing"):
            meta[key] = parse_element(rest, lineno)
        elif key == "torsion":
            meta["torsion"].append(parse_element(rest, lineno))
        elif key == "index":
            sub = rest.rsplit(None, 1)
            if len(sub) != 2 or sub[1] not in ("0", "1"):
                raise ParseError("expected: index expression bit", lineno)
            meta["index"].append((parse_element(sub[0], lineno), int(sub[1])))
        else:
            raise ParseError(f"unknown metadata key {key!r}", lineno)

    cap = meta.get("cap", 16)
    algebra, action = _build_algebra(sections, "", cap)
    integ = None
    if sections["integral"]:
        spans: dict[int, list[GradedElement]] = {}
        for lineno, line in sections["integral"]:
            degree, expr = _split(line, lineno, 2, "degree expression")
            degree = _int(degree, lineno, f"bad degree {degree!r}")
            spans.setdefault(degree, []).append(parse_element(expr, lineno))
        integ = IntegralityData(action, spans)
    top = meta.get("topdegree", cap)
    space = SpaceModel(algebra, action, integ, top)

    is_manifold = any(k in meta for k in ("dimension", "lambda", "pairing")) or \
        any(meta[k] for k in ("flags", "w", "torsion", "index"))
    if not is_manifold:
        return ParsedSpace(space, None)

    boundary = None
    if sections["boundary-generators"]:
        balg, baction = _build_algebra(sections, "boundary-", cap)
        bspace = SpaceModel(balg, baction, None, cap)
        images = {}
        for lineno, line in sections["restriction"]:
            gen, expr = _split(line, lineno, 2, "generator expression")
            images[gen] = parse_element(expr, lineno)
        boundary = PairModel(bspace, AlgebraMap(algebra, balg, images))
    elif sections["restriction"]:
        raise ParseError("restriction given without boundary generators")

    manifold = ManifoldData(
        space=space,
        dimension=meta.get("dimension", top),
        sw=meta["w"],
        lam=meta.get("lambda", algebra.zero),
        pairing=meta.get("pairing", algebra.zero),
        flags=frozenset(meta["flags"]),
        torsion4=tuple(meta["torsion"]),
        boundary=boundary,
    )
    values: dict[int, int] = {}
    for e, bit in meta["index"]:
        key = algebra.express_bits(
            algebra._homogeneous(e, 4, f"index class {e} must have degree 4"), 4)
        if values.setdefault(key, bit) != bit:
            raise ValidationError(f"index class {e} is given both bits")
    return ParsedSpace(manifold, IndexTable(values) if values else None)


def _algebra_doc(space: SpaceModel) -> dict:
    """Generators, relations and the nonzero Sq table of one space."""
    gens, table = space.algebra.generators, space.action._table
    return {"generators": [[g.name, g.degree, g.kind] for g in gens],
            "relations": sorted(str(r) for r in space.algebra.relations),
            "sq": {g.name: {str(i): str(e) for i, e in sorted(table[g.name].items()) if e}
                   for g in gens if any(table[g.name].values())}}


def serialize_model(parsed: ParsedSpace) -> dict:
    """Canonical JSON document for a parsed space or manifold.

    The document is accepted back by parse_file (JSON route), and two
    files describing the same model serialize identically; reports embed
    it as the input echo.
    """
    model = parsed.model
    space = model.space if isinstance(model, ManifoldData) else model
    algebra = space.algebra
    doc = _algebra_doc(space)
    doc["metadata"] = {"cap": algebra.degree_cap, "topdegree": space.top_degree}
    if space.integ is not None:
        doc["integral"] = {
            str(d): sorted(str(e) for e in elems)
            for d, elems in sorted(space.integ._elements.items()) if d != 0}
    if isinstance(model, ManifoldData):
        meta = doc["metadata"]
        meta["dimension"] = model.dimension
        if model.flags:
            meta["flags"] = sorted(model.flags)
        if model.sw:
            meta["w"] = {str(i): str(w) for i, w in sorted(model.sw.items())}
        meta["lambda"] = str(model.lam)
        meta["pairing"] = str(model.pairing)
        if model.torsion4:
            meta["torsion"] = [str(t) for t in model.torsion4]
        if parsed.index is not None:
            meta["index"] = [
                f"{algebra.element_from_bits(4, key)} {bit}"
                for key, bit in sorted(parsed.index.values.items())]
        if model.boundary is not None:
            doc["boundary"] = _algebra_doc(model.boundary.space)
            doc["restriction"] = {
                name: str(img)
                for name, img in sorted(model.boundary.restriction.images.items())}
    return doc


def parse_module(path: str | Path) -> RbkModule | TensorModule:
    """Module files: a [module] header plus normalized operator matrices.

    Matrix rows are 0/1 entries of the v-normalized operator, each any
    spelling of 0 or 1 that int() reads; row i, column j is the
    coefficient of generator i in b_k * generator j.  A single-factor
    module's block is [operator] or [operator k], k its header's factor
    index.  A header with a truncation declares a tensor module, whose
    [operator j] is factor j's block; it may not carry k.  The
    truncation and the rank are checked against their limits before any
    list or matrix is built.
    """
    explicit: dict[int, int] = {}  # factor index -> line of its [operator k]
    sections = _read_sections(_read(path),
                              lambda name, lineno: _module_section(name, lineno, explicit))
    header: dict[str, int] = {}
    lines: dict[str, int] = {}  # header key -> its line
    degrees: list[int] = []
    for lineno, line in sections.pop("module", []):
        key, rest = (line.split(None, 1) + [""])[:2]
        key = key.lower()
        if key == "degrees":
            degrees = [_int(x, lineno, f"bad degree {x!r}") for x in rest.split()]
        elif key in ("n", "k", "rank", "truncation"):
            header[key] = _int(rest, lineno, f"{key} expects an integer")
            lines[key] = lineno
        else:
            raise ParseError(f"unknown module key {key!r}", lineno)
    if "n" not in header:
        raise ParseError("module file must declare n")
    K = header.get("truncation")
    if K is not None:
        if "k" in header:
            raise ParseError("k is for single-factor modules, not a module with a "
                             "truncation", lines["k"])
        _check_factors(K)
    rank = header.get("rank", len(degrees))
    if rank > MAX_MODULE_RANK:
        raise ComputationError(f"module rank {rank} exceeds the limit {MAX_MODULE_RANK}")
    if not degrees:
        degrees = [0] * rank
    if rank != len(degrees):
        raise ParseError("rank does not match the number of degrees")

    def to_columns(rows: list[tuple[int, str]]) -> tuple[int, ...]:
        table = []
        for lineno, line in rows:
            entries = line.split()
            if not {*entries} <= {"0", "1"}:  # other spellings go through int()
                entries = ["01"[_int(x, lineno, "matrix rows must be 0/1 entries", (0, 1))]
                           for x in entries]
            table.append(entries)
        if len(table) != rank or any(len(entries) != rank for entries in table):
            raise ParseError(f"operator matrix must be {rank}x{rank}")
        # row i is bit i of each column, so the last row is its leading digit
        return tuple(int("".join(col), 2) for col in zip(*reversed(table)))

    if K is not None:
        extra = set(sections) - set(range(K))
        if extra:
            raise ParseError(f"operator index beyond the truncation: {sorted(extra)}")
        ops = tuple(to_columns(sections[k]) if k in sections else (0,) * rank
                    for k in range(K))
        return TensorModule(header["n"], K, tuple(degrees), ops)
    if len(sections) != 1:
        raise ParseError("a single-factor module needs exactly one [operator] block")
    (index, rows), = sections.items()
    k = header.get("k", 0)
    if index in explicit and index != k:
        raise ParseError(f"operator index {index} differs from the module's k = {k}",
                         explicit[index])
    return RbkModule(header["n"], k, tuple(degrees), to_columns(rows))
