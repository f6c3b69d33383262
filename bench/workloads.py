"""Seeded inputs and independent answer checks for the four workloads.

Each workload function writes its space or module files into a work dir and
returns the requests of one pass: the argv handed to
``moravak.cli.main`` plus a check of the report.  The checks never call
the library: they recompute answers with the binomial-rule oracles of
``tests/oracles.py``, with closed forms known from how the inputs were
generated, or against stored reports.  Checks run after timing.

The same seed always gives the same files and argv.  The compute
workloads draw their instances once from a fixed stream and let the seed
relabel them -- permute the generators of a space or the basis of a
module -- and reorder them.  A relabelled instance is isomorphic to its
base, so every seed asks for the same amount of work and a metric's
spread over seeds is the machine's, not the inputs'.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from typing import Callable, Optional

import oracles

HERE = Path(__file__).resolve().parent
EXPECTED_README = HERE / "readme_expected.json"

# problem text, or None when the report is right
Check = Callable[[int, str], Optional[str]]


@dataclass
class Request:
    argv: list[str]
    check: Check


class CheckFailed(Exception):
    pass


def _payload(code: int, out: str) -> dict:
    """The JSON report of a successful run (text+JSON or --json form)."""
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    block = out.partition("\n--- json ---\n")[2] or out
    try:
        return json.loads(block)["payload"]
    except (ValueError, KeyError) as err:
        raise CheckFailed(f"unparseable report: {err}") from None


def _checked(fn: Callable[[dict], None]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        try:
            fn(_payload(code, out))
        except CheckFailed as err:
            return str(err)
        except (LookupError, TypeError, AttributeError) as err:
            return f"report lacks an expected field: {err!r}"
        return None
    return check


def _expect(what: str, got, want):
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


# -- polynomial rings on degree-1 classes -------------------------------------

def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(out)


def _format(monos) -> str:
    terms = []
    for exps in sorted(monos):
        factors = [f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
                   for i, e in enumerate(exps) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)


def _sq1(monos) -> set:
    """Sq^1 by the binomial rule: Sq^1(t_i^a) = a t_i^{a+1}, Cartan on products."""
    out: set = set()
    for exps in monos:
        for i, e in enumerate(exps):
            if e % 2:
                out ^= {exps[:i] + (e + 1,) + exps[i + 1:]}
    return out


def _seeded_twist(rng: random.Random, nvars: int, degree: int) -> set:
    """Sq^1 of a sum of two distinct degree-(degree-1) monomials, nonzero."""
    pool = _monomials(nvars, degree - 1)
    while True:
        h = _sq1(rng.sample(pool, 2))
        if h:
            return h


def _relabel(exps: tuple, perm: list[int]) -> tuple:
    """The exponent vector with generator i renamed to generator perm[i]."""
    out = [0] * len(exps)
    for i, e in enumerate(exps):
        out[perm[i]] = e
    return tuple(out)


def _space_text(nvars: int, relations: list[str], cap: int) -> str:
    gens = "".join(f"t{i + 1} 1\n" for i in range(nvars))
    rels = "".join(f"{r}\n" for r in relations)
    return f"[generators]\n{gens}[relations]\n{rels}[metadata]\ncap {cap}\n"


def ahss_oracle(nvars: int, bounds: Optional[tuple], cap: int, n: int,
                twist: set) -> tuple[str, dict[int, object]]:
    """The twist term phi = Q_{n-1}...Q_1(twist), as the program prints it,
    and the next-page ranks of F2[t_1..t_k]/(t_i^{bounds_i}) after
    d(m) = Q_n(m) + m * phi, from the brute-force Milnor expansion and a
    numpy mod-2 rank.  The monomial ideal is
    Sq-closed, so computing on standard monomials and dropping the rest
    is exact.  Columns whose target leaves the window are
    'edge-incomplete'."""
    step = 2 ** (n + 1) - 1

    def standard(exps):
        return sum(exps) <= cap and (
            bounds is None or all(e < b for e, b in zip(exps, bounds)))

    def basis(p):
        return [m for m in _monomials(nvars, p) if standard(m)]

    def milnor(j, monos):
        out: set = set()
        for m in monos:
            out ^= oracles.brute_milnor_multi(j, m)
        return {m for m in out if standard(m)}

    phi = set(twist)
    for j in range(1, n):
        phi = milnor(j, phi)
    ranks: dict[int, int] = {}
    out: dict[int, object] = {}
    for p in range(cap + 1):
        if p + step > cap:
            out[p] = "edge-incomplete"
            continue
        target = {m: i for i, m in enumerate(basis(p + step))}
        cols = []
        for m in basis(p):
            image = milnor(n, [m])
            image ^= {t for t in (tuple(a + b for a, b in zip(m, f)) for f in phi)
                      if standard(t)}
            cols.append(sum(1 << target[t] for t in image))
        ranks[p] = oracles.dense_rank_mod2(cols, len(target))
        out[p] = len(basis(p)) - ranks[p] - ranks.get(p - step, 0)
    # the program sorts monomials as tuples of (generator, exponent) pairs
    terms = sorted(tuple((f"t{i + 1}", e) for i, e in enumerate(m) if e) for m in phi)
    printed = " + ".join("*".join(g if e == 1 else f"{g}^{e}" for g, e in t)
                         for t in terms) or "0"
    return printed, out


def _ranks(payload: dict, page: str) -> dict:
    return {int(k[2:]): v for k, v in payload[page]["ranks"].items()}


# -- ahss-relations ---------------------------------------------------------------

def ahss_relations(rng: random.Random, work: Path, tiny: bool) -> list[Request]:
    """F2[t1..t4]/(t_i^{e_i}) at cap 11, every other space with one
    Frobenius-linear relation t_a^4 + t_b^4 [+ t_c^4]; n = 2.

    The base spaces take the exponents of one of three fixed multisets in
    a random order, each twice without and twice with the extra relation,
    and a twist Sq^1(two degree-3 monomials).  The seed renames the
    generators of each space and orders the spaces.  At cap 11 a request
    takes tens of milliseconds, short enough for its fastest repetition
    to be steady on a shared machine; at cap 13 it takes about 0.3 s."""
    cap, copies, multisets = (9, 2, [(5, 6, 6, 7)]) if tiny else \
        (11, 4, [(5, 5, 6, 7), (5, 6, 6, 7), (5, 6, 7, 7)])
    base = random.Random("ahss-relations:base")
    spaces = []
    for s in range(copies * len(multisets)):
        bounds = tuple(base.sample(multisets[s // copies], 4))
        picked = base.sample(range(4), 2 + s // 2 % 2) if s % 2 else []
        spaces.append((s, bounds, picked, _seeded_twist(base, 4, 4)))
    rng.shuffle(spaces)
    requests = []
    for s, bounds, picked, twist in spaces:
        perm = rng.sample(range(4), 4)
        bounds = _relabel(bounds, perm)
        twist = {_relabel(m, perm) for m in twist}
        relations = [f"t{i + 1}^{e}" for i, e in enumerate(bounds)]
        frobenius = bool(picked)
        if frobenius:
            names = sorted(perm[i] for i in picked)
            relations.append(" + ".join(f"t{i + 1}^4" for i in names))
        path = work / f"rel{s}.space"
        path.write_text(_space_text(4, relations, cap))

        def check(doc, bounds=bounds, frobenius=frobenius, twist=twist):
            _expect("differential", doc["differential"], "d_7")
            e2, e8 = _ranks(doc, "E2"), _ranks(doc, "E8")
            for p in range(4):
                _expect(f"E2 p={p}", e2[p], comb(p + 3, 3))
            _expect("edge-incomplete columns",
                    sorted(p for p, v in e8.items() if v == "edge-incomplete"),
                    list(range(cap - 6, cap + 1)))
            if not frobenius:
                phi, oracle = ahss_oracle(4, bounds, cap, 2, twist)
                _expect("twist_term", doc["twist_term"], phi)
                for p in range(cap + 1):
                    want = sum(1 for m in _monomials(4, p)
                               if all(e < b for e, b in zip(m, bounds)))
                    _expect(f"E2 p={p}", e2[p], want)
                _expect("E8", e8, oracle)

        requests.append(Request(
            ["ahss", "--space", str(path), "--n", "2", "--twist", _format(twist),
             "--json"], _checked(check)))
    return requests


# -- ahss-free --------------------------------------------------------------------

def ahss_free(rng: random.Random, work: Path, tiny: bool) -> list[Request]:
    """F2[t1,t2,t3] at cap 20 with no relations; n = 3 reaches Q_3.

    The base twists are Sq^1(two degree-4 monomials); the seed renames
    the generators in each and orders them."""
    cap, count = (17, 1) if tiny else (20, 12)
    path = work / "free.space"
    path.write_text(_space_text(3, [], cap))
    base = random.Random("ahss-free:base")
    twists = [_seeded_twist(base, 3, 5) for _ in range(count)]
    rng.shuffle(twists)
    requests = []
    for twist in twists:
        perm = rng.sample(range(3), 3)
        twist = {_relabel(m, perm) for m in twist}

        def check(doc, twist=twist):
            _expect("differential", doc["differential"], "d_15")
            e2 = _ranks(doc, "E2")
            _expect("E2", e2, {p: comb(p + 2, 2) for p in range(cap + 1)})
            phi, oracle = ahss_oracle(3, None, cap, 3, twist)
            _expect("twist_term", doc["twist_term"], phi)
            _expect("E16", _ranks(doc, "E16"), oracle)

        requests.append(Request(
            ["ahss", "--space", str(path), "--n", "3", "--twist", _format(twist),
             "--json"], _checked(check)))
    return requests


# -- khorami-bar ------------------------------------------------------------------

def _gf2_inverse(cols: list[int], rank: int) -> Optional[list[int]]:
    """Columns of the inverse by Gauss-Jordan on [A | I], or None."""
    rows = [sum(((cols[j] >> i) & 1) << j for j in range(rank)) | (1 << (rank + i))
            for i in range(rank)]
    for c in range(rank):
        pivot = next((r for r in range(c, rank) if (rows[r] >> c) & 1), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(rank):
            if r != c and (rows[r] >> c) & 1:
                rows[r] ^= rows[c]
    inv_rows = [row >> rank for row in rows]
    return [sum(((inv_rows[i] >> j) & 1) << i for i in range(rank)) for j in range(rank)]


def _apply(cols: list[int], vec: int) -> int:
    out = 0
    for j, col in enumerate(cols):
        if (vec >> j) & 1:
            out ^= col
    return out


def _permute_bits(vec: int, perm: list[int]) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if (vec >> i) & 1)


def khorami_bar(rng: random.Random, work: Path, tiny: bool) -> list[Request]:
    """Rank 3-4 modules over the truncation-6 tensor ring at n = 2, with
    commuting idempotents U D_k U^{-1}; khorami plus a long tor range
    against each of M and N.

    The seed permutes the basis of each base module (conjugating every
    operator by the permutation) and orders the modules."""
    count, max_degree, top = (1, 2, 20) if tiny else (6, 4, 1500)
    K = 6
    base = random.Random("khorami-bar:base")
    modules = []
    for s in range(count):
        rank = 3 + s % 2
        while True:
            U = [base.randrange(1 << rank) for _ in range(rank)]
            inv = _gf2_inverse(U, rank)
            if inv is not None:
                break
        diags = [[base.randint(0, 1) for _ in range(rank)] for _ in range(K)]
        degrees = [6 * base.randint(0, 2) for _ in range(rank)]
        ks = [base.randrange(K) for _ in "MN"]
        modules.append((s, rank, U, inv, diags, degrees, ks))
    rng.shuffle(modules)
    requests = []
    for s, rank, U, inv, diags, degrees, ks in modules:
        perm = rng.sample(range(rank), rank)
        ops = []
        for d in diags:
            scaled = [U[i] if d[i] else 0 for i in range(rank)]
            cols = [_apply(scaled, inv[j]) for j in range(rank)]
            moved = [0] * rank
            for j, col in enumerate(cols):
                moved[perm[j]] = _permute_bits(col, perm)
            ops.append(moved)
        degrees = [degrees[perm.index(i)] for i in range(rank)]
        lines = ["[module]", "n 2", f"truncation {K}", f"rank {rank}",
                 "degrees " + " ".join(map(str, degrees))]
        for k, cols in enumerate(ops):
            lines.append(f"[operator {k}]")
            lines += [" ".join(str((c >> i) & 1) for c in cols) for i in range(rank)]
        path = work / f"tensor{s}.module"
        path.write_text("\n".join(lines) + "\n")

        quotient_rank = sum(1 for i in range(rank)
                            if diags[0][i] and not any(d[i] for d in diags[1:]))

        def check_khorami(doc, quotient_rank=quotient_rank):
            _expect("agrees", doc["agrees"], True)
            _expect("quotient", doc["quotient"],
                    {"rank": quotient_rank, "degrees_mod_v": [0] * quotient_rank})
            _expect("bar page", doc["bar_page"],
                    {f"degree_{m}": quotient_rank if m == 0 else 0
                     for m in range(max_degree + 1)})

        requests.append(Request(
            ["khorami", "--module", str(path), "--max-degree", str(max_degree),
             "--json"], _checked(check_khorami)))
        for against, k in zip("MN", ks):
            b = ops[k] if against == "M" else [c ^ (1 << j) for j, c in enumerate(ops[k])]

            def check_tor(doc, b=b, rank=rank):
                tor0 = oracles.dense_cokernel_rank(b, rank)
                # every generator degree is a multiple of |v| = 6
                _expect("Tor_0", doc["Tor_0"], {"rank": tor0, "degrees_mod_v": [0] * tor0})
                _expect("Tor range", sorted(doc),
                        sorted(f"Tor_{i}" for i in range(top + 1)))
                for i in range(1, top + 1):
                    if doc[f"Tor_{i}"] != {"rank": 0, "degrees_mod_v": []}:
                        raise CheckFailed(f"Tor_{i} is nonzero: {doc[f'Tor_{i}']}")

            requests.append(Request(
                ["tor", "--module", str(path), "--k", str(k), "--against", against,
                 "--i", "0", str(top), "--json"], _checked(check_tor)))
    return requests


# -- readme-mix -------------------------------------------------------------------

# the README's command-line examples, plus the 2-series at truncation 64
README_COMMANDS = [
    ["twist", "--encode", "(0,1)"],
    ["twist", "--vanishing", "4", "2"],
    ["tor", "--module", "r0free", "--against", "M"],
    ["khorami", "--module", "r0free"],
    ["ahss", "--space", "s3", "--n", "1", "--twist", "fundamental"],
    ["ahss", "--space", "synth12", "--n", "2", "--twist", "h4", "--integral"],
    ["fgl", "--law", "gm", "--check-grouplike", "1+x"],
    ["fgl", "--law", "gm", "--two-series", "--solve-theta", "4", "--height"],
    ["obstruct", "--manifold", "genspin", "--check", "wu", "--i", "7", "--j", "8"],
    ["obstruct", "--manifold", "m10", "--check", "phase", "--a", "c", "--b", "b"],
    ["obstruct", "--manifold", "pair12", "--check", "relative", "--h4", "u4"],
    ["fgl", "--modulus", "8", "--two-series", "--truncation", "64"],
]


def _element(exps) -> str:
    return "".join("(1+y)" if k == 0 else f"(1+y^{1 << k})" for k in exps) or "1"


def _bits(value: int) -> list[int]:
    return [k for k in range(value.bit_length()) if (value >> k) & 1]


def _twist_variants(rng: random.Random, slot: int) -> list[Request]:
    """Encode, decode and multiply at truncation M; the slot fixes M and
    how many exponents each element has, the seed picks them."""
    M = 6 + slot % 5
    f = sorted(rng.sample(range(M), 1 + slot % 3))
    g = sorted(rng.sample(range(M), 1 + (slot + 1) % 3))
    enc_f, enc_g = sum(1 << k for k in f), sum(1 << k for k in g)
    d = sum(1 << k for k in rng.sample(range(M), M // 2))

    def check_encode(doc):
        _expect("encoded", doc["encoded"], enc_f)
        _expect("element", doc["element"], _element(f))
        subs = [s for s in range(enc_f + 1) if s & enc_f == s]
        _expect("series", doc["series"], " + ".join(
            "1" if s == 0 else "y" if s == 1 else f"y^{s}" for s in subs))

    def check_decode(doc):
        _expect("exponents", doc["exponents"], _bits(d))
        _expect("element", doc["element"], _element(_bits(d)))

    def check_multiply(doc):
        total = (enc_f + enc_g) % (1 << M)
        _expect("product_encoded", doc["product_encoded"], total)
        _expect("product", doc["product"], _element(_bits(total)))

    def exps(ks):
        return "(" + ",".join(map(str, ks)) + ")"

    trunc = ["--truncation", str(M)]
    return [
        Request(["twist", "--encode", exps(f)] + trunc, _checked(check_encode)),
        Request(["twist", "--decode", str(d)] + trunc, _checked(check_decode)),
        Request(["twist", "--multiply", exps(f), exps(g)] + trunc,
                _checked(check_multiply)),
    ]


def _grouplike_variant(rng: random.Random, slot: int) -> Request:
    """(1+x)^j is grouplike for the multiplicative law; mod 2 its terms
    are x^k for the k whose bits lie inside j (Lucas).  The slot fixes
    how many bits j has, so the series has 2^(1 + slot % 4) terms."""
    T = 16
    j = sum(1 << b for b in rng.sample(range(4), 1 + slot % 4))
    series = "+".join("1" if k == 0 else "x" if k == 1 else f"x^{k}"
                      for k in range(j + 1) if k & j == k)
    return Request(["fgl", "--law", "gm", "--truncation", str(T),
                    "--check-grouplike", series],
                   _checked(lambda doc: _expect("grouplike", doc, {"grouplike": True})))


def _tor_variant(rng: random.Random) -> Request:
    """r0free: B_0 = [[0,0],[1,1]] on degrees (0, 6), every other factor 0.
    Tor_0 is coker B (M) or coker(B - v) (N); all higher Tor vanishes."""
    k, against = rng.randrange(6), rng.choice("MN")
    lo = rng.randint(0, 3)
    hi = lo + 8
    tor0 = 1 if k == 0 else (2 if against == "M" else 0)

    def check(doc):
        want = {f"Tor_{i}": {"rank": tor0 if i == 0 else 0,
                             "degrees_mod_v": [0] * tor0 if i == 0 else []}
                for i in range(lo, hi + 1)}
        _expect("tor", doc, want)

    return Request(["tor", "--module", "r0free", "--k", str(k), "--against", against,
                    "--i", str(lo), str(hi)], _checked(check))


def readme_mix(rng: random.Random, work: Path, tiny: bool) -> list[Request]:
    """The README commands against stored reports, plus seeded variants
    with closed-form answers, shuffled."""
    expected = json.loads(EXPECTED_README.read_text())
    requests = []
    for argv in README_COMMANDS:
        want = expected[" ".join(argv)]
        requests.append(Request(list(argv), _checked(
            lambda doc, want=want: _expect("report", doc, want))))
    for slot in range(1 if tiny else 8):
        requests += _twist_variants(rng, slot)
        requests.append(_grouplike_variant(rng, slot))
        requests.append(_tor_variant(rng))
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "ahss-relations": ahss_relations,
    "ahss-free": ahss_free,
    "khorami-bar": khorami_bar,
    "readme-mix": readme_mix,
}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> list[Request]:
    """Requests of one pass of the named workload; files go under work."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work, tiny)
