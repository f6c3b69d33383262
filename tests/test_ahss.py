import pytest

from moravak import cli, gf2
from moravak.ahss import (
    SpaceModel,
    e2_page,
    first_differential,
    integral_first_differential,
    turn_page,
    twist_term,
)
from moravak.errors import ComputationError, ValidationError
from moravak.f2alg import AlgebraMap, EXTERIOR, GradedGenerator, PresentedAlgebra, parse_element
from moravak.spacefile import parse_file
from moravak.steenrod import IntegralityData, SqAction, TriState, milnor_q, sq

from conftest import FIXTURES, projective_product, random_element
from test_f2alg import reference_mul, reference_routes
from test_steenrod import ReferenceSq


def s3_model() -> SpaceModel:
    return parse_file(FIXTURES / "s3.space").model


def synth12():
    return parse_file(FIXTURES / "synth12.space").model.space


def honest_height2_model(cap=16):
    alg, act = projective_product(3, cap)
    return SpaceModel(alg, act)


def wedge_model(cap=12):
    """RP^inf v RP^inf: F2[a, b]/(ab).  The relation's monomial sorts
    first in degree 2, so basis monomials sit above a pivot and basis
    position i is not candidate i."""
    alg = PresentedAlgebra([GradedGenerator("a", 1), GradedGenerator("b", 1)],
                           [parse_element("a*b")], cap)
    return SpaceModel(alg, SqAction(alg, {}))


def test_e2_page_point():
    space = parse_file(FIXTURES / "point.space").model
    page = e2_page(space, 1)
    assert page.rank(0) == 1
    assert all(page.rank(p) == 0 for p in range(1, 7))
    assert turn_page(first_differential(page, space, space.algebra.zero)).rank(0) == 1


def test_e2_page_s3():
    space = s3_model()
    page = e2_page(space, 1)
    assert {p: page.rank(p) for p in range(5)} == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0}
    # cells replicate along rows of width |v1| = 2
    assert page.cell(3, 0) != () and page.cell(3, -2) != ()
    assert page.cell(3, 1) == ()


def test_e2_page_projective():
    space = parse_file(FIXTURES / "rp_inf.space").model
    page = e2_page(space, 1)
    assert all(page.rank(p) == 1 for p in range(13))


def test_s3_fundamental_twist_kills_everything():
    space = s3_model()
    h = space.algebra.generator("h")
    page = first_differential(e2_page(space, 1), space, h)
    assert page.diff[0] == (1,)
    assert page.diff[3] == (0,)
    e4 = turn_page(page)
    assert e4.label == "E4"
    assert all(e4.rank(p) == 0 for p in e4.window)
    assert not e4.incomplete


def test_s3_zero_twist_page_unchanged():
    space = s3_model()
    page = first_differential(e2_page(space, 1), space,
                              space.algebra.zero)
    e4 = turn_page(page)
    assert {p: e4.rank(p) for p in e4.window} == \
        {p: len(space.algebra.basis(p)) for p in e4.window}


def test_page_path_decodes_only_the_twist_and_phi(monkeypatch):
    """The window is listed as keys: building F2[t1,t2,t3] at cap 20
    decodes no monomial, and the page path decodes only the monomials it
    prints, those of the twist and of phi, not the window's thousands."""
    decoded = set()
    decode = PresentedAlgebra._monomial

    def recording_decode(self, n):
        decoded.add(m := decode(self, n))
        return m

    monkeypatch.setattr(PresentedAlgebra, "_monomial", recording_decode)
    alg = PresentedAlgebra([GradedGenerator(f"t{i}", 1) for i in (1, 2, 3)], (), 20)
    assert not decoded
    space = SpaceModel(alg, SqAction(alg))
    before = set(decoded)  # the action's generator squares
    twist = parse_element("t1*t2*t3^3")  # phi has six terms
    page = turn_page(first_differential(e2_page(space, 3), space, twist))
    decoded -= before
    phi = twist_term(space, twist, 3)
    assert decoded <= twist.terms | phi.terms
    assert phi and page.rank(0) == 0  # d(1) = phi


def test_e2_columns_are_read_as_basis_numbers(monkeypatch):
    """E2 holds no coordinate int per class, and filling its differential
    maps no class through gf2.apply_columns; only the d^2 check applies
    the filled columns."""
    alg, act = projective_product(3, 20)
    space = SpaceModel(alg, act)
    page = e2_page(space, 1)
    assert all(c is None for c in page.coords.values())
    applied = []
    apply_columns = gf2.apply_columns
    monkeypatch.setattr(gf2, "apply_columns",
                        lambda cols, vec: applied.append(cols) or apply_columns(cols, vec))
    filled = first_differential(page, space, parse_element("t1^2*t2 + t1*t2^2"))
    assert applied and all(any(cols is d for d in filled.diff.values()) for cols in applied)
    assert all(filled.rank(p) == len(alg.basis(p)) for p in filled.window)


@pytest.mark.parametrize("integral", [[], ["--integral"]])
def test_one_ahss_request_evaluates_phi_once(monkeypatch, capsys, integral):
    """phi = Q_1(h4) is evaluated once per request, though both the
    report and the differential read it; every other outermost Q is the
    differential's Q_2."""
    outer, depth = [], [0]
    q = SqAction._q

    def counted(self, j, x):
        if not depth[0]:
            outer.append(j)
        depth[0] += 1
        try:
            return q(self, j, x)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(SqAction, "_q", counted)
    argv = ["ahss", "--space", str(FIXTURES / "synth12.space"), "--n", "2", "--twist", "h4"]
    assert cli.main(argv + integral) == 0
    assert outer.count(1) == 1 and set(outer) == {1, 2}
    capsys.readouterr()


def test_twist_term_examples():
    space = s3_model()
    h = space.algebra.generator("h")
    assert twist_term(space, h, 1) == h
    syn = synth12()
    h4 = syn.algebra.element("h4")
    phi = twist_term(syn, h4, 2)
    assert phi == syn.algebra.element("g7")
    assert syn.algebra.degree_of(phi) == 7
    assert twist_term(syn, syn.algebra.zero, 2) == syn.algebra.zero
    with pytest.raises(ValidationError, match="^twist must be homogeneous of degree 4$"):
        twist_term(syn, syn.algebra.element("g6"), 2)


def test_d7_formula_on_synthetic_model():
    """d_7(1 . v^k) = (Sq^3 h4 + Sq^2 Sq^1 h4) v^{k-1} = g7 v^{k-1}."""
    syn = synth12()
    alg = syn.algebra
    h4 = alg.element("h4")
    expected = sq(3, h4, syn.action) + sq(2, sq(1, h4, syn.action), syn.action)
    assert expected == alg.element("g7")
    page = first_differential(e2_page(syn, 2), syn, h4)
    col = page.diff[0][0]
    assert alg.element_from_bits(7, col) == expected
    # v-linearity: the matrix is the same on every row
    assert page.differential_matrix(0, 0) == page.differential_matrix(0, -6) \
        == page.differential_matrix(0, 6)


def test_module_property_over_untwisted_page(rng):
    """d(ab) = d^u(a) b + a d(b) with d^u = Q_n and d = Q_n + (.)phi."""
    space = honest_height2_model()
    alg, act = space.algebra, space.action
    h = sq(1, alg.element("t1*t2*t3"), act)
    phi = twist_term(space, h, 2)
    assert phi != alg.zero
    checked = 0
    for _ in range(100):
        a = random_element(alg, rng.randint(1, 4), rng)
        b = random_element(alg, rng.randint(1, 4), rng)
        ab = alg.mul(a, b)
        d = lambda x: milnor_q(2, x, act) + alg.mul(x, phi)  # noqa: E731
        du = lambda x: milnor_q(2, x, act)  # noqa: E731
        assert alg.reduce(d(ab) + alg.mul(du(a), b) + alg.mul(a, d(b))) == alg.zero
        checked += 1
    assert checked == 100


def test_d_squared_zero_on_computed_window():
    space = honest_height2_model()
    h = sq(1, space.algebra.element("t1*t2*t3"), space.action)
    page = first_differential(e2_page(space, 2), space, h)
    R = page.step
    composable = [p for p in page.window if p in page.diff and p + R in page.diff]
    assert composable  # the check must not be vacuous
    for p in composable:
        for col in page.diff[p]:
            assert gf2.apply_columns(page.diff[p + R], col) == 0


def test_inconsistent_action_raises():
    alg = PresentedAlgebra([GradedGenerator("g", 2), GradedGenerator("h", 3)], (), 10)
    act = SqAction(alg, {"g": {1: alg.element("h")},
                         "h": {1: alg.element("g^2"), 2: alg.element("g*h")}})
    space = SpaceModel(alg, act)
    with pytest.raises(ComputationError,
                       match=r"^d\^2 != 0 out of column 2; the Sq table is inconsistent$"):
        first_differential(e2_page(space, 1), space, alg.zero)


def test_normalization_zero_twist_is_untwisted():
    space = honest_height2_model(cap=12)
    page = first_differential(e2_page(space, 2), space,
                              space.algebra.zero)
    for p in page.diff:
        for m, col in zip(page.bases[p], page.diff[p]):
            image = milnor_q(2, m, space.action)
            assert space.algebra.express_bits(image, p + page.step) == col


def reference_columns(page, space, twist) -> dict:
    """The differential as it was built: Q_n(m) + m.phi as elements, by
    the term-by-term Sq reference and reference products, then read over
    the target basis one basis index at a time."""
    alg, ref = space.algebra, ReferenceSq(space.action)
    phi = alg.reduce(twist)
    for j in range(1, page.n):
        phi = ref.milnor_q(j, phi)
    out = {}
    for p, cols in page.diff.items():
        if p + page.step <= alg.degree_cap:
            out[p] = tuple(reference_routes(alg, ref.milnor_q(page.n, m) + reference_mul(alg, m, phi))[1]
                           .get(p + page.step, 0) for m in page.bases[p])
    return out


@pytest.mark.parametrize("model, n, twists", [
    (lambda: honest_height2_model(cap=12), 2, ["0", "t1^4 + t1*t2*t3^2", "t2^2*t3^2"]),
    (synth12, 2, ["0", "h4"]),
    (lambda: parse_file(FIXTURES / "rp_inf.space").model, 1, ["0", "t^3"]),
    (synth12, 1, ["0"]),
    (lambda: parse_file(FIXTURES / "fb12.space").model.space, 2, ["0"]),
    (wedge_model, 1, ["0", "a^3 + b^3"]),
], ids=["product", "synth12", "rp_inf", "synth12-n1", "fb12", "wedge"])
def test_first_differential_columns_match_reference(model, n, twists):
    space = model()
    for text in twists:
        twist = space.algebra.element(text)
        page = first_differential(e2_page(space, n), space, twist)
        expected = reference_columns(page, space, twist)
        assert expected and all(page.diff[p] == cols for p, cols in expected.items())
        assert any(any(cols) for cols in expected.values()) or text == "0"


def test_edge_incomplete_flags_on_truncated_model():
    space = parse_file(FIXTURES / "rp_inf.space").model  # cap 12, truncated
    page = first_differential(e2_page(space, 1), space,
                              space.algebra.zero)
    assert sorted(page.incomplete) == [10, 11, 12]
    turned = turn_page(page)
    assert turned.is_incomplete(11)
    # interior stays computable: Q_1(t^m) = m t^{m+3} kills odd columns
    # and sweeps out the even ones from degree 4 on
    assert turned.rank(2) == 1 and turned.rank(4) == 0 and turned.rank(5) == 0


def test_naturality_intertwines_differentials():
    """A map of exterior models commuting with Sq intertwines the twisted
    differentials for a twist and its pullback."""
    X = PresentedAlgebra([GradedGenerator("a", 3, EXTERIOR)], (), 8)
    Y = PresentedAlgebra([GradedGenerator("b", 3, EXTERIOR),
                          GradedGenerator("c", 3, EXTERIOR)], (), 8)
    actX, actY = SqAction(X, {}), SqAction(Y, {})
    spaceX = SpaceModel(X, actX, top_degree=3)
    spaceY = SpaceModel(Y, actY, top_degree=6)
    fmap = AlgebraMap(X, Y, {"a": Y.element("b + c")})
    pageX = first_differential(e2_page(spaceX, 1), spaceX,
                               X.generator("a"))
    pageY = first_differential(e2_page(spaceY, 1), spaceY,
                               Y.element("b + c"))
    R = pageX.step
    for p in pageX.window:
        if p + R > X.degree_cap:
            continue
        # matrix of f* from X-column p to Y-column p
        f_cols_p = [Y.express_bits(fmap.apply(m), p) for m in pageX.bases[p]]
        f_cols_pr = [Y.express_bits(fmap.apply(m), p + R) for m in pageX.bases[p + R]]
        for j, m in enumerate(pageX.bases[p]):
            via_x = gf2.apply_columns(f_cols_pr, pageX.diff[p][j])
            via_y = gf2.apply_columns(pageY.diff[p], f_cols_p[j])
            assert via_x == via_y, (p, str(m))


def test_projective_space_rank_is_two_to_the_height():
    """The untwisted page of the infinite projective model leaves 2^n
    surviving columns at height n: Q_n(t^m) = m t^{m + 2^{n+1}-1} kills
    every odd column and sweeps the even ones from 2^{n+1} on."""
    from moravak.f2alg import GradedGenerator, PresentedAlgebra
    for n, cap in ((1, 12), (2, 16), (3, 34)):
        alg = PresentedAlgebra([GradedGenerator("t", 1)], (), cap)
        space = SpaceModel(alg, SqAction(alg, {}))
        page = turn_page(first_differential(e2_page(space, n), space,
                                            alg.zero))
        R = 2 ** (n + 1) - 1
        survivors = [p for p in page.window
                     if not page.is_incomplete(p) and page.rank(p)]
        assert survivors == list(range(0, R, 2)), n
        assert len(survivors) == 2 ** n


def test_closed_truncated_projective_model():
    """RP^8 as a closed model: the relation t^9 = 0 truncates Q_1 honestly,
    so t^7 joins the kernel (Q_1 t^7 = t^10 = 0) and survives, while the
    even columns 4, 6, 8 are swept out by the odd ones below them."""
    from conftest import truncated_projective
    alg, act = truncated_projective(9, 12)
    space = SpaceModel(alg, act, top_degree=8)
    page = turn_page(first_differential(e2_page(space, 1), space,
                                        alg.zero))
    assert not page.incomplete
    ranks = {p: page.rank(p) for p in page.window if page.rank(p)}
    assert ranks == {0: 1, 2: 1, 7: 1}


def test_turn_page_requires_filled_differential():
    space = s3_model()
    with pytest.raises(ComputationError, match="^fill the differential before turning$"):
        turn_page(e2_page(space, 1))


def test_second_turn_is_upper_bound():
    space = s3_model()
    page = first_differential(e2_page(space, 1), space,
                              space.algebra.zero)
    once = turn_page(page)
    twice = turn_page(once)
    assert "upper bound" in twice.label
    assert {p: twice.rank(p) for p in twice.window} == \
        {p: once.rank(p) for p in once.window}


def reference_turn(page) -> dict:
    """The turned bases by the element route: each homology representative
    as the sum of the page's basis elements at its bits."""
    out = {}
    for p in page.window:
        old = page.bases[p]
        if p in page.incomplete:
            out[p] = old
            continue
        image = page.diff[p - page.step] if p >= page.step else ()
        sums = []
        for rep in gf2.homology(page.diff[p], len(old), image):
            e = page.algebra.zero
            for i in gf2.bits(rep):
                e = e + old[i]
            sums.append(e)
        out[p] = tuple(sums)
    return out


@pytest.mark.parametrize("model, n, twists", [
    (s3_model, 1, ["0", "h"]),
    (lambda: parse_file(FIXTURES / "rp_inf.space").model, 1, ["0", "t^3"]),
    (synth12, 2, ["h4"]),
    (lambda: honest_height2_model(cap=12), 2, ["t1^4 + t1*t2*t3^2"]),
    # Sq^1(t1 t2): survivors of up to three terms
    (lambda: honest_height2_model(cap=12), 1, ["t1^2*t2 + t1*t2^2"]),
], ids=["s3", "rp_inf", "synth12", "product", "product-n1"])
def test_turned_representatives_are_sums_of_basis_elements(model, n, twists):
    space = model()
    for text in twists:
        filled = first_differential(e2_page(space, n), space,
                                    space.algebra.element(text))
        once = turn_page(filled)
        assert once.bases == reference_turn(filled)
        assert turn_page(once).bases == reference_turn(once)


def test_rank_path_builds_no_element(monkeypatch):
    """Ranks come from coordinates alone: with every route from basis
    coordinates to elements refused, the page turns to the same ranks.
    The certificates, which read classes as elements, stay as they were."""
    def ranks():
        alg, act = projective_product(3, 17)
        space = SpaceModel(alg, act)
        twist = alg.element("t1*t2*t3^3")  # phi has six terms
        page = turn_page(first_differential(e2_page(space, 3), space, twist))
        return {p: page.rank(p) for p in page.window}, page.incomplete

    def refuse(*args):
        raise AssertionError("the rank path built an element")

    with monkeypatch.context() as patch:
        patch.setattr(PresentedAlgebra, "element_from_bits", refuse)
        patch.setattr(PresentedAlgebra, "basis_elements", refuse)
        refused = ranks()
    assert refused == ranks()
    assert refused[0][0] == refused[0][2] == 0 and refused[0][3] == 10
    syn = synth12()
    for text, expected in (("0", {0: "Y", 4: "N", 6: "U", 7: "N", 8: "U"}),
                           ("h4", {0: "N", 4: "U", 6: "N", 7: "U", 8: "N"})):
        result = integral_first_differential(e2_page(syn, 2), syn,
                                             syn.algebra.element(text))
        assert {p: "".join(t.name[0] for t in row)
                for p, row in result.certificates.items() if row} == expected


def all_integral_model(cap=18):
    alg = PresentedAlgebra([GradedGenerator("u4", 4)], (), cap)
    act = SqAction(alg, {})
    spans = {4 * k: [alg.element(f"u4^{k}")] for k in range(1, cap // 4 + 1)}
    return SpaceModel(alg, act, IntegralityData(act, spans))


def test_integral_certificates_yes_everywhere():
    space = all_integral_model()
    result = integral_first_differential(e2_page(space, 2), space,
                                         space.algebra.zero)
    seen = 0
    for p, row in result.certificates.items():
        for verdict in row:
            assert verdict is TriState.YES, p
            seen += 1
    assert seen >= 3


def test_integral_certificates_mixed_on_synthetic_model():
    syn = synth12()
    result = integral_first_differential(e2_page(syn, 2), syn,
                                         syn.algebra.zero)
    assert result.certificates[0][0] is TriState.YES       # d(1) = 0, unit integral
    assert result.certificates[4][0] is TriState.NO        # Q_2(h4) = h4 g7 != 0
    assert result.certificates[6][0] is TriState.UNKNOWN   # g6^2 not declared
    # a nonzero twist without a Sq^2-certificate downgrades zero rows
    result2 = integral_first_differential(e2_page(syn, 2), syn,
                                          syn.algebra.element("h4"))
    assert result2.certificates[0][0] is TriState.NO       # shadow g7 is nonzero


def test_nonzero_twist_at_n1_is_never_integral():
    """At n = 1 the twist term is the twist itself, so a nonzero twist
    gives no vanishing certificate even where Sq^2 of it is integral.
    Column h of Lambda(h3, u5) with Sq^2 h = u, u integral, is zero under
    both twists, and Sq^2 h lies in the integral image."""
    alg = PresentedAlgebra([GradedGenerator("h", 3, EXTERIOR),
                            GradedGenerator("u", 5, EXTERIOR)], (), 10)
    act = SqAction(alg, {"h": {2: alg.element("u")}})
    space = SpaceModel(alg, act, IntegralityData(act, {5: [alg.element("u")]}))
    for twist, verdict in (("0", TriState.YES), ("h", TriState.UNKNOWN)):
        result = integral_first_differential(e2_page(space, 1), space, alg.element(twist))
        assert result.page.diff[3] == (0,)
        assert result.certificates[3] == (verdict,)


def test_integral_requirements():
    space = s3_model()  # no integral data
    with pytest.raises(ValidationError, match="^the space carries no integral-image data$"):
        integral_first_differential(e2_page(space, 1), space,
                                    space.algebra.generator("h"))


def test_space_model_dimension_validation():
    alg = PresentedAlgebra([GradedGenerator("t", 1)], (), 8)
    act = SqAction(alg, {})
    with pytest.raises(ValidationError):
        SpaceModel(alg, act, top_degree=3)  # classes exist above degree 3
