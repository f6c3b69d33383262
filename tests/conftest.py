import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from moravak.f2alg import (
    EXTERIOR,
    POLYNOMIAL,
    GradedElement,
    GradedGenerator,
    PresentedAlgebra,
    monomial,
    parse_element,
)
from moravak.steenrod import SqAction

SEED = int(os.environ.get("MORAVAK_SEED", "20260810"))

FIXTURES = Path(__file__).parent.parent / "src" / "moravak" / "fixtures"

# the messages an ill-formed element raises: an unknown generator, a
# negative exponent on a generator that is not invertible, a form of
# several degrees
ILL_FORMED = (r"^(unknown generator |negative exponent on non-invertible generator "
              r"|element is not homogeneous: )")


@pytest.fixture
def rng():
    return random.Random(SEED)


def projective_space(cap: int = 16) -> tuple[PresentedAlgebra, SqAction]:
    """F2[t], |t| = 1, the honest action with Sq^1 t = t^2."""
    alg = PresentedAlgebra([GradedGenerator("t", 1)], (), cap)
    return alg, SqAction(alg, {})


def projective_product(k: int, cap: int = 16) -> tuple[PresentedAlgebra, SqAction]:
    """F2[t1..tk], all in degree 1; a genuine space, so Adem holds."""
    gens = [GradedGenerator(f"t{i}", 1) for i in range(1, k + 1)]
    alg = PresentedAlgebra(gens, (), cap)
    return alg, SqAction(alg, {})


def truncated_projective(power: int = 9, cap: int = 12):
    """F2[t]/(t^power): the action is compatible with the monomial ideal."""
    alg = PresentedAlgebra([GradedGenerator("t", 1)],
                           [parse_element(f"t^{power}")], cap)
    return alg, SqAction(alg, {})


def exterior_pair(cap: int = 12):
    """Lambda(x3, x5): everything interesting is forced to zero."""
    alg = PresentedAlgebra([GradedGenerator("x3", 3, EXTERIOR),
                            GradedGenerator("x5", 5, EXTERIOR)], (), cap)
    return alg, SqAction(alg, {})


def random_element(alg: PresentedAlgebra, degree: int, rnd: random.Random):
    basis = alg.basis_elements(degree)
    out = alg.zero
    for e in basis:
        if rnd.random() < 0.5:
            out = out + e
    return out


def random_homogeneous(alg: PresentedAlgebra, rnd: random.Random,
                       dmin: int = 1, dmax: int | None = None, tries: int = 20):
    """A random nonzero homogeneous element in a random degree."""
    dmax = dmax if dmax is not None else alg.degree_cap // 2
    for _ in range(tries):
        d = rnd.randint(dmin, dmax)
        e = random_element(alg, d, rnd)
        if e:
            return e
    return alg.one


def random_unreduced(alg: PresentedAlgebra, rnd: random.Random) -> GradedElement:
    """A random element that is generally not in canonical form: a few
    monomials on one or two generators with exponents up to one past the
    cap (so exterior squares and out-of-window terms occur), plus raw,
    unreduced multiples of the relations."""
    cap = alg.degree_cap
    terms: set = set()
    for _ in range(rnd.randint(1, 4)):
        pairs = []
        for g in rnd.sample(alg.generators, min(2, len(alg.generators))):
            pairs.append((g.name, rnd.randint(0, cap // g.degree + 1)))
        terms ^= {monomial(*pairs)}
    for r in alg.relations:
        if rnd.random() < 0.5:
            mult = monomial(*((g.name, rnd.randint(0, 2)) for g in alg.generators))
            for t in r.terms:
                terms ^= {monomial(*mult, *t)}
    return GradedElement(frozenset(terms))


@st.composite
def presentations(draw):
    """One to three generators g0, g1, g2 of degrees 1 to 4, each
    polynomial or exterior, at a cap of 6 to 12, with perhaps a power
    g^e of a polynomial generator, which the window folds in, and
    perhaps a homogeneous relation: a sum of two or three free
    monomials, or one monomial where its degree has no other."""
    gens = [GradedGenerator(f"g{k}", draw(st.integers(1, 4)),
                            draw(st.sampled_from([POLYNOMIAL, EXTERIOR])))
            for k in range(draw(st.integers(1, 3)))]
    cap = draw(st.integers(6, 12))
    relations = []
    polynomial = [g for g in gens if g.kind == POLYNOMIAL]
    if polynomial and draw(st.booleans()):
        g = draw(st.sampled_from(polynomial))
        relations.append(GradedElement(frozenset({((g.name, draw(
            st.integers(1, cap // g.degree))),)})))
    if draw(st.booleans()):
        free = PresentedAlgebra(gens, (), cap)
        if basis := free.basis(draw(st.integers(1, cap))):
            relations.append(GradedElement(frozenset(draw(
                st.sets(st.sampled_from(basis), min_size=min(2, len(basis)), max_size=3)))))
    return PresentedAlgebra(gens, relations, cap)
