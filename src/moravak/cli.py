"""Command-line surface: file ingestion, dispatch, deterministic reports.

Every run produces a Report carrying the command payload plus an echo
of the inputs and the tool version; rendering is byte-deterministic for
identical inputs (sorted keys, no timestamps).  Exit codes: 0 ok,
2 parse, 3 validation, 4 computation, 5 hypothesis violated, 141 stdout
closed early.

A Tor range is one payload value: an entry per index below 1 and one per
parity class of the 2-periodic resolution, which the renderers expand
per key, rendering each entry once.  The keys of index >= 1 are expanded
by decimal-prefix blocks: the text of all keys under one prefix is made
once from a placeholder, split once at it, and joined with each prefix
it fits.  The placeholder never occurs in a rendered entry, which holds
only ints.  JSON is written as one list of pieces, joined once, so a
long range's text is copied once, not once per nesting level.

The argument parser is built once per process, by the first ``main``
call, and reused; ``build_parser`` builds a fresh one.  ``main`` hands
argv to the parser of the subcommand it names; the top-level parser
keeps help, unknown commands and leftover words.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__, fixtures
from .ahss import (
    Page,
    e2_page,
    first_differential,
    integral_first_differential,
    turn_page,
    twist_term,
)
from .errors import ComputationError, MoravakError, ParseError, ValidationError
from .f2alg import GradedElement
from .fgl import (
    FGL,
    Series,
    grouplike_check,
    height,
    solve_theta,
    two_series,
)
from .obstruct import (
    ManifoldData,
    fivebrane_check,
    heterotic_check,
    integral_sw,
    phase_invariance_check,
    quadratic_refinement_check,
    relative_obstruction,
    twisted_string_check,
    wu_sq,
)
from .rbk import (
    RbkModule,
    TensorModule,
    bar_e2,
    khorami_quotient,
    tor,
)
from .spacefile import parse_file, parse_module, serialize_model
from . import twistgroup
from .steenrod import TriState

# tor reports one entry per index; longer ranges are refused
MAX_TOR_INDICES = 2048


@dataclass
class Report:
    command: str
    inputs: dict
    payload: dict | _TorRange
    version: str = __version__

    def to_json(self) -> str:
        doc = {"command": self.command, "inputs": self.inputs,
               "payload": self.payload, "version": self.version}
        return _json(doc, 0)

    def to_text(self) -> str:
        lines = [f"moravak {self.version} :: {self.command}"]
        for key in sorted(self.inputs):
            if key == "echo":
                continue  # the full model echo lives in the JSON block
            lines.append(f"  input {key} = {self.inputs[key]}")
        lines.extend(_render(self.payload, indent=1))
        return "\n".join(lines)

    def render(self, json_only: bool = False) -> str:
        if json_only:
            return self.to_json()
        return f"{self.to_text()}\n--- json ---\n{self.to_json()}"


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, depth: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, indented to ``depth``,
    for the types a report holds: dicts with str keys, lists, tuples,
    str, exact int, bool, None and a ``_TorRange``.  Any other type
    raises TypeError.  The text is written as pieces and joined once, so
    a long Tor range is copied once, not once per nesting level.
    """
    out: list[str] = []
    _write_json(out, value, depth)
    return "".join(out)


def _write_json(out: list[str], value, depth: int) -> None:
    """Append the pieces of ``_json(value, depth)`` to out."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(repr(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        pad = "\n" + "  " * depth
        sep = "," + pad + "  "
        first = len(out)  # the first entry's sep becomes the opening bracket
        if kind is list or kind is tuple:
            brackets = "[]"
            for sub in value:
                out.append(sep)
                _write_json(out, sub, depth + 1)
        elif kind is _TorRange:
            brackets = "{}"
            items = value.keyed('"Tor_', lambda entry: '": ' + _json(entry, depth + 1), sep)
            for item in items:
                out += sep, item
        elif kind is dict and {*map(type, value)} <= {str}:  # every key an exact str
            brackets = "{}"
            for key in sorted(value):
                out += sep, _encode_str(key), ": "
                _write_json(out, value[key], depth + 1)
        else:
            raise TypeError(f"{kind.__name__} is no report type, or a dict key is no str")
        if len(out) == first:
            out.append(brackets)
        else:
            out[first] = brackets[0] + sep[1:]
            out.append(pad + brackets[1])


def _render(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, _TorRange):
        return value.keyed(f"{pad}Tor_", lambda entry: "\n".join(
            [":", *_render(entry, indent + 1)]), "\n")
    lines = []
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for sub in value:
            lines.append(f"{pad}- {sub}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _resolve_path(raw: str, prefer: str | None = None) -> Path:
    p = Path(raw)
    if p.exists():
        return p
    bundled = fixtures.path(raw, prefer)
    if bundled is not None:
        return bundled
    raise ParseError(f"no such file or bundled fixture: {raw}")


# -- twist --------------------------------------------------------------------

def _parse_exponent_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip().strip("()").strip()
    if not raw:
        return ()
    try:
        return tuple(int(x) for x in raw.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"bad exponent list {raw!r}") from None


# each twist option that one mode alone reads: (that mode, default, what it is)
_TWIST_MODE_OPTIONS = {"n": ("hom", 2, "height"), "factors": ("hom", 6, "tensor truncation"),
                       "p": ("vanishing", 2, "prime")}


def cmd_twist(args) -> Report:
    M = args.truncation
    inputs = {"truncation": M}
    payload: dict = {}
    if args.encode is not None and args.decode is not None:
        raise ParseError("twist: --encode and --decode report the same keys; give one")
    given = vars(args)  # the namespace: a mode option is in it only if given
    for option, (mode, default, _) in _TWIST_MODE_OPTIONS.items():
        if option in given and given[mode] is None:
            raise ParseError(f"twist: --{option} is read only with --{mode}")
        given.setdefault(option, default)
    if args.encode is not None:
        f = twistgroup.from_exponents(_parse_exponent_list(args.encode), M)
        inputs["encode"] = args.encode
        payload["element"] = str(f)
        payload["series"] = f.series_string()
        payload["encoded"] = twistgroup.encode(f).value
    if args.decode is not None:
        f = twistgroup.decode(twistgroup.Dyadic.residue(args.decode, M))
        inputs["decode"] = args.decode
        payload["element"] = str(f)
        payload["series"] = f.series_string()
        payload["exponents"] = list(f.exponents)
    if args.multiply is not None:
        f = twistgroup.from_exponents(_parse_exponent_list(args.multiply[0]), M)
        g = twistgroup.from_exponents(_parse_exponent_list(args.multiply[1]), M)
        prod = twistgroup.multiply(f, g)
        inputs["multiply"] = list(args.multiply)
        payload["product"] = str(prod)
        payload["product_encoded"] = twistgroup.encode(prod).value
    if args.hom is not None:
        f = twistgroup.from_exponents(_parse_exponent_list(args.hom), M)
        hom = twistgroup.to_algebra_hom(f, args.n, args.factors)
        inputs["hom"] = args.hom
        payload["assignments"] = {
            f"b{k}": (f"v^{hom.assignment(k)}" if hom.assignment(k) is not None else "0")
            for k in range(hom.truncation)}
    if args.vanishing is not None:
        m, n = args.vanishing
        verdict = twistgroup.vanishing_check(m, n, args.p)
        inputs["vanishing"] = [m, n]
        inputs["p"] = args.p
        payload["verdict"] = verdict.value
        payload["degree_note"] = twistgroup.degree_obstruction_report(n, args.p)
    if not payload:
        raise ParseError("twist: nothing to do "
                         "(use --encode/--decode/--multiply/--hom/--vanishing)")
    return Report("twist", inputs, payload)


# -- tor / khorami ------------------------------------------------------------

def _module_payload(mod) -> dict:
    if isinstance(mod, TensorModule):
        return {"kind": "tensor", "n": mod.n, "truncation": mod.truncation,
                "rank": mod.rank, "degrees": list(mod.degrees)}
    return {"kind": "single", "n": mod.n, "k": mod.k,
            "rank": mod.rank, "degrees": list(mod.degrees)}


@dataclass(frozen=True)
class _TorRange:
    """Tor_lo .. Tor_hi as one payload value, for a resolution that is
    2-periodic from index 1 on: ``low`` maps each index below 1 to its
    entry, ``classes`` each parity (1 odd, 0 even) met in ``start`` .. ``hi``
    to the entry its indices share.  The renderers expand it per key,
    by decimal-prefix blocks (``keyed``)."""
    low: dict
    classes: dict
    start: int
    hi: int

    def keyed(self, head: str, tail, sep: str) -> list[str]:
        """Pieces that, joined by ``sep``, give ``head + str(i) + tail(entry)``
        for every index i, in the string order of the keys ``Tor_<i>``,
        calling ``tail`` once per entry.

        The keys of index >= 1 sort after every key of index < 1 ("-" < "0"
        < "1"); their string order is a preorder walk of decimal prefixes.
        Where every extension of a prefix p by 1..k digits is in range and
        none by k + 1 digits is, p's extensions are one block: the text of
        every extension of a NUL placeholder by 1..k digits, whose last
        digit gives its parity.  Each block is split once at the
        placeholder, and p's copy is its parts joined with ``str(p)``.  A
        rendered entry holds only ints, so the placeholder never occurs in
        one."""
        pieces = [f"{head}{i}{tail(self.low[i])}" for i in sorted(self.low, key=str)]
        text = {parity: tail(entry) for parity, entry in self.classes.items()}
        start, hi = self.start, self.hi
        blocks = [[""]]  # blocks[k]: the block of 1..k digits, split
        # (p, width): p * width <= hi < p * width * 10, so width is 10^k for
        # the deepest k at which p has an extension <= hi; the root is p = 0
        stack = [(0, 10 ** len(str(hi)))] if start <= hi else []
        while stack:
            p, width = stack.pop()
            if p >= start:
                pieces.append(f"{head}{p}{text[p % 2]}")
            if width == 1:
                continue
            if p * 10 >= start and (p + 1) * width <= hi + 1:
                k = len(str(width)) - 1
                while len(blocks) <= k:
                    prev = "\0".join(blocks[-1])
                    blocks.append(sep.join([
                        f"{head}\0{d}{text[int(d) % 2]}"
                        + (prev and sep + prev.replace("\0", "\0" + d))
                        for d in "0123456789"]).split("\0"))
                pieces.append(str(p).join(blocks[k]))
                continue
            width //= 10
            if width == 1:  # the children are leaves: emit them in order
                pieces += [f"{head}{c}{text[c % 2]}"
                           for c in range(max(p * 10, start), min(p * 10 + 9, hi) + 1)]
                continue
            for d in range(9, -1 if p else 0, -1):  # popped in ascending order
                child = p * 10 + d
                w = width if child * width <= hi else width // 10
                if (child + 1) * w > start:
                    stack.append((child, w))
        return pieces


def cmd_tor(args) -> Report:
    mod = parse_module(_resolve_path(args.module, ".module"))
    if isinstance(mod, TensorModule):
        mod = mod.factor(args.k or 0)
    elif args.k is not None and args.k != mod.k:
        raise ParseError(f"--k {args.k} differs from the module's k = {mod.k}")
    lo, hi = args.i
    if hi - lo + 1 > MAX_TOR_INDICES:
        raise ComputationError(
            f"tor range [{lo}, {hi}] has {hi - lo + 1} indices; "
            f"the limit is {MAX_TOR_INDICES}")

    def entry(i: int) -> dict:
        group = tor(mod, args.against, i)
        return {"rank": group.rank, "degrees_mod_v": list(group.degree_classes)}

    # the resolution is 2-periodic, so Tor_i for i >= 1 depends only on
    # the parity of i: the range is one payload value holding an entry per
    # index below 1 (the smallest raises first if negative) and one per
    # parity class, which the renderers expand per key
    start = max(lo, 1)
    return Report("tor",
                  {"module": Path(args.module).name, "against": args.against,
                   "range": [lo, hi], **_module_payload(mod)},
                  _TorRange({i: entry(i) for i in range(lo, min(hi, 0) + 1)},
                            {i % 2: entry(i) for i in range(start, min(hi, start + 1) + 1)},
                            start, hi))


def cmd_khorami(args) -> Report:
    mod = parse_module(_resolve_path(args.module, ".module"))
    if isinstance(mod, RbkModule):
        mod = TensorModule.from_single(mod)
    quotient = khorami_quotient(mod)
    hom = twistgroup.AlgebraHom.universal(mod.n, mod.truncation)
    page = bar_e2(mod, hom, max_degree=args.max_degree)
    payload = {
        "quotient": {"rank": quotient.rank,
                     "degrees_mod_v": list(quotient.degree_classes)},
        "bar_page": {f"degree_{m}": entry.rank for m, entry in enumerate(page)},
        "agrees": page[0].rank == quotient.rank,
    }
    return Report("khorami",
                  {"module": Path(args.module).name, **_module_payload(mod)},
                  payload)


# -- ahss ----------------------------------------------------------------------

def _twist_from_arg(space, n: int, raw: str) -> GradedElement:
    algebra = space.algebra
    if raw == "fundamental":
        basis = algebra.basis_elements(n + 2)
        if len(basis) != 1:
            raise ValidationError(
                f"'fundamental' needs a rank-1 degree-{n + 2} space; rank is {len(basis)}")
        return basis[0]
    return algebra.element(raw)


def _page_payload(page: Page) -> dict:
    ranks = {f"p={p:02d}": "edge-incomplete" if page.is_incomplete(p) else page.rank(p)
             for p in page.window}
    return {"label": page.label, "ranks": ranks}


def cmd_ahss(args) -> Report:
    parsed = parse_file(_resolve_path(args.space))
    model = parsed.model
    space = model.space if isinstance(model, ManifoldData) else model
    n = args.n
    twist = _twist_from_arg(space, n, args.twist)
    page2 = e2_page(space, n)
    phi = twist_term(space, twist, n)
    payload: dict = {
        "twist_term": str(phi),
        "differential": f"d_{2 ** (n + 1) - 1}",
        "E2": _page_payload(page2),
    }
    if args.integral:
        result = integral_first_differential(page2, space, twist)
        filled = result.page
        certs = {}
        for p in sorted(result.certificates):
            row = result.certificates[p]
            if row:
                certs[f"p={p:02d}"] = [t.value for t in row]
        payload["certificates"] = certs
    else:
        filled = first_differential(page2, space, twist)
    turned = turn_page(filled)
    payload[turned.label] = _page_payload(turned)
    payload["note"] = (f"{turned.label} ranks are upper bounds for the limit; "
                       "higher differentials are not determined here")
    return Report("ahss",
                  {"space": Path(args.space).name, "n": n, "twist": args.twist,
                   "integral": bool(args.integral), "echo": serialize_model(parsed)},
                  payload)


# -- fgl -------------------------------------------------------------------------

_SERIES_TERM = re.compile(r"(\d+)|x(?:\^(\d+))?")


def _parse_series(raw: str, trunc: int, modulus: int):
    """Signed terms like ``1 - x + x^3``; exponents are nonnegative integers."""
    coeffs: dict[int, int] = {}
    for sign, chunk in re.findall(r"([+-]?)([^+-]*)", raw.replace(" ", "")):
        if not chunk:
            continue
        match = _SERIES_TERM.fullmatch(chunk)
        if not match:
            raise ParseError(f"bad series term {chunk!r} in {raw!r} "
                             "(terms are integers, x or x^k with k >= 0)")
        const, exp = match.groups()
        try:
            deg, c = (0, int(const)) if const else (int(exp or 1), 1)
        except ValueError:  # more digits than int() converts
            raise ParseError("series term has too many digits") from None
        coeffs[deg] = coeffs.get(deg, 0) + (-c if sign == "-" else c)
    return Series(1, trunc, modulus, {(d,): coeffs[d] for d in sorted(coeffs)})


def _law(name: str, trunc: int, modulus: int) -> FGL:
    name = name.lower()
    if name in ("gm", "multiplicative"):
        return FGL.multiplicative(trunc, modulus)
    if name == "additive":
        return FGL.additive(trunc, modulus)
    raise ParseError(f"unknown law {name!r} (use gm or additive)")


def cmd_fgl(args) -> Report:
    F = _law(args.law, args.truncation, args.modulus)
    inputs = {"law": args.law, "truncation": args.truncation,
              "modulus": args.modulus}
    payload: dict = {}
    if args.two_series:
        payload["two_series"] = str(two_series(F))
    if args.solve_theta is not None:
        payload["theta"] = {f"theta_{i}": v for i, v in
                            enumerate(solve_theta(F, args.solve_theta), start=1)}
    if args.height:
        h = height(F)
        payload["height"] = h if h is not None else \
            f">= log2({args.truncation}) (2-series vanishes within truncation)"
    if args.check_grouplike is not None:
        alpha = _parse_series(args.check_grouplike, args.truncation, args.modulus)
        inputs["series"] = args.check_grouplike
        payload["grouplike"] = grouplike_check(alpha, F)
    if not payload:
        raise ParseError("fgl: nothing to do (use --two-series/--solve-theta/"
                         "--height/--check-grouplike)")
    return Report("fgl", inputs, payload)


# -- obstruct ---------------------------------------------------------------------

def _report_payload(report) -> dict:
    """Every field of a check's report, as JSON values."""
    payload = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, TriState):
            value = value.value
        elif isinstance(value, GradedElement):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        payload[f.name] = value
    return payload


# each obstruct check: its function, the operands it takes after the model in
# call order (the options it reads, and "index" for the file's index table,
# which the check then requires) and its payload from the function's result
_OBSTRUCT_CHECKS = {
    "string": (twisted_string_check, ("h4",), _report_payload),
    "heterotic": (heterotic_check, ("a", "b"), _report_payload),
    "fivebrane": (fivebrane_check, ("h5",), _report_payload),
    "quadratic": (quadratic_refinement_check, ("index", "a", "a2"),
                  lambda ok: {"refinement_holds": ok}),
    "phase": (phase_invariance_check, ("index", "a", "b"), _report_payload),
    "relative": (relative_obstruction, ("h4",), _report_payload),
    "wu": (wu_sq, ("i", "j"), lambda wu: {"wu": str(wu)}),
    "integral-sw": (integral_sw, ("i",), lambda result: {
        "shadow": str(result[0]), "certificate": result[1].value}),
}
# each obstruct option's default; a class (a str) is read in the manifold's algebra
_OBSTRUCT_DEFAULTS = {"h4": "0", "h5": "0", "a": "0", "b": "0", "a2": "0", "i": 7, "j": 8}


def cmd_obstruct(args) -> Report:
    run, names, to_payload = _OBSTRUCT_CHECKS[args.check]
    given = vars(args)  # the namespace: an obstruct option is in it only if given
    for option, default in _OBSTRUCT_DEFAULTS.items():
        if option in given and option not in names:
            raise ParseError(f"--check {args.check} does not read --{option}")
        given.setdefault(option, default)
    parsed = parse_file(_resolve_path(args.manifold))
    model = parsed.model
    if not isinstance(model, ManifoldData):
        raise ValidationError("obstruct needs manifold metadata in the space file")
    inputs = {"manifold": Path(args.manifold).name, "check": args.check,
              "echo": serialize_model(parsed)}
    if "index" in names and parsed.index is None:
        raise ValidationError(f"{args.check} check needs an index table in the file")
    given["index"] = parsed.index  # an operand, but no option: not echoed
    inputs.update((name, given[name]) for name in names if name in _OBSTRUCT_DEFAULTS)
    operands = [model.space.algebra.element(value) if isinstance(value, str) else value
                for value in map(given.get, names)]
    return Report("obstruct", inputs, to_payload(run(model, *operands)))


# -- dispatch ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moravak",
        description="Desk-scale twisted Morava K-theory computations.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit only the machine-readable JSON block")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("twist", help="the 2-adic group of twists", parents=[common])
    p.add_argument("--encode", help="exponent list like \"(0,1)\"")
    p.add_argument("--decode", type=int, help="dyadic value")
    p.add_argument("--multiply", nargs=2, metavar=("F", "G"))
    p.add_argument("--hom", help="exponent list; emit the coefficient action")
    p.add_argument("--vanishing", nargs=2, type=int, metavar=("M", "N"))
    for option, (mode, default, what) in _TWIST_MODE_OPTIONS.items():  # defaults in cmd_twist
        p.add_argument(f"--{option}", type=int, default=argparse.SUPPRESS,
                       help=f"{what} for --{mode} (default {default})")
    p.add_argument("--truncation", type=int, default=8, help="truncation order M")

    p = sub.add_parser("tor", parents=[common], help="Tor against the cyclic quotients")
    p.add_argument("--module", required=True)
    p.add_argument("--against", choices=["M", "N"], default="M")
    p.add_argument("--k", type=int,
                   help="factor index: the tensor factor to restrict to (default 0), "
                        "or a single-factor module's k")
    p.add_argument("--i", nargs=2, type=int, default=(0, 4), metavar=("LO", "HI"))

    p = sub.add_parser("khorami", parents=[common], help="twisted homology via the quotient")
    p.add_argument("--module", required=True)
    p.add_argument("--max-degree", type=int, default=4)

    p = sub.add_parser("ahss", parents=[common], help="twisted page at the first differential")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--twist", default="0", help="expression, 'fundamental', or 0")
    p.add_argument("--integral", action="store_true",
                   help="emit vanishing certificates for the integral lift")

    p = sub.add_parser("fgl", parents=[common], help="formal group 2-series arithmetic")
    p.add_argument("--law", default="gm")
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--truncation", type=int, default=16)
    p.add_argument("--two-series", action="store_true")
    p.add_argument("--solve-theta", type=int, metavar="I")
    p.add_argument("--height", action="store_true")
    p.add_argument("--check-grouplike", metavar="SERIES")

    p = sub.add_parser("obstruct", parents=[common], help="orientation obstruction checks")
    p.add_argument("--manifold", required=True)
    p.add_argument("--check", required=True, choices=_OBSTRUCT_CHECKS)
    for option, default in _OBSTRUCT_DEFAULTS.items():  # defaults in cmd_obstruct
        p.add_argument(f"--{option}", type=type(default), default=argparse.SUPPRESS)
    parser.commands = sub.choices  # name -> subparser, for main's dispatch
    return parser


_parser = None  # built by the first main call, reused by every later one


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    The parser of the command argv names parses the words after the name,
    as argparse's subparsers step would; the top-level parser reports
    leftover words and parses an argv that names no command (help, a typo,
    nothing)."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = _parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            _parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        # looked up per call: the parser outlives any later replacement of a
        # cmd_* function (a tracer, a test patch), so it must not hold them
        report = globals()[f"cmd_{args.command}"](args)
    except MoravakError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    try:
        print(report.render(json_only=args.json), flush=True)
    except BrokenPipeError:  # the reader closed stdout, as ``| head`` does
        # point stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    return 0


if __name__ == "__main__":
    sys.exit(main())
