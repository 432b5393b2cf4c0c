import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_nonzero_poly, sympy_expr
from folgerm import localalg
from folgerm.germs import (
    BalancedEquation,
    CurveGerm,
    FoliationGerm,
    milnor_foliation,
)
from folgerm.linalg import bareiss_rank, kernel_basis
from folgerm.localalg import QuotientOperator, mult_operator, standard_basis
from folgerm.polynomials import Poly, intersection_at_origin, parse_poly
from folgerm.theorems import check_briancon_skoda


def P(text, **params):
    return parse_poly(text, 2, {k: Fraction(v) for k, v in params.items()})


def fk_components(k, lam=1):
    params = {"lambda": Fraction(lam), "k": None}
    p = parse_poly(
        f"y*(2*x^{2 * k - 2}+2*(lambda+1)*x^2*y^{k - 2}-y^{k - 1})", 2,
        {"lambda": Fraction(lam)},
    )
    q = parse_poly(
        f"x*(y^{k - 1}-(lambda+1)*x^2*y^{k - 2}-x^{2 * k - 2})", 2,
        {"lambda": Fraction(lam)},
    )
    return p, q


def column_key(monomial):
    """Position in the local column order: smaller key, larger monomial.

    The reference order that the engine's closed-form column numbers follow.
    """
    return (sum(monomial), tuple(-e for e in monomial))


def greater(m1, m2):
    """m1 > m2 in the local order: m1 comes first among the columns."""
    return column_key(m1) < column_key(m2)


def outer_corners(staircase):
    """Minimal generators of the leading ideal of a nonempty staircase.

    They are the monomials outside the staircase whose quotient by each
    variable they contain lies inside it.
    """
    inside = set(staircase)
    reach = 2 + max(sum(m) for m in inside)
    corners = [
        (a, b)
        for a in range(reach)
        for b in range(reach - a)
        if (a, b) not in inside
        and (a == 0 or (a - 1, b) in inside)
        and (b == 0 or (a, b - 1) in inside)
    ]
    return tuple(sorted(corners, key=column_key))


def kernel_and_rank(op):
    """(kernel dimension, rank) of a multiplication operator, exactly."""
    return len(kernel_basis(op.rows, ncols=op.dimension)), bareiss_rank(op.columns)


class TestLocalOrder:
    def test_one_is_maximal(self):
        assert greater((0, 0), (1, 0))
        assert greater((0, 0), (0, 5))

    def test_lower_degree_wins(self):
        assert greater((1, 0), (1, 1))
        assert greater((0, 2), (5, 3))

    def test_tie_break_prefers_x(self):
        assert greater((1, 0), (0, 1))
        assert greater((2, 1), (1, 2))

    def test_total_and_multiplicative(self):
        rng = random.Random(3)
        monos = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(40)]
        for m1 in monos:
            for m2 in monos:
                if m1 != m2:
                    assert greater(m1, m2) != greater(m2, m1)
                    shift = (1, 2)
                    shifted = (
                        tuple(a + b for a, b in zip(m1, shift)),
                        tuple(a + b for a, b in zip(m2, shift)),
                    )
                    assert greater(m1, m2) == greater(*shifted)

    def test_leading_term(self):
        assert min(P("x - x^2").terms, key=column_key) == (1, 0)
        assert min(P("x^2*y + x*y^2 + y^5").terms, key=column_key) == (2, 1)

    @pytest.mark.parametrize("degree", range(41))
    def test_closed_form_columns(self, degree):
        # the engine numbers the columns with no table: x^i * y^j is column
        # s(s+1)/2 + j for s = i + j
        monomials = localalg._monomials_below(degree)
        expected = sorted(
            ((d - j, j) for d in range(degree) for j in range(d + 1)), key=column_key
        )
        assert monomials == expected
        assert [localalg._column(*m) for m in monomials] == list(range(len(monomials)))


class TestStandardBasis:
    def test_maximal_ideal(self):
        sb = standard_basis([P("x"), P("y")])
        assert outer_corners(sb.quotient_basis) == ((1, 0), (0, 1))
        assert sb.quotient_basis == ((0, 0),)
        assert sb.quotient_dim() == 1

    def test_unit_factor_is_invisible_locally(self):
        sb = standard_basis([P("x - x^2"), P("y")])
        assert outer_corners(sb.quotient_basis) == ((1, 0), (0, 1))
        assert sb.quotient_dim() == 1

    def test_cusp_jacobian(self):
        sb = standard_basis([P("-3*x^2"), P("2*y")])
        assert sb.quotient_basis == ((0, 0), (1, 0))
        assert sb.quotient_dim() == 2

    def test_infinite_quotient(self):
        sb = standard_basis([P("x")])
        assert sb.quotient_basis is None
        assert sb.quotient_dim() is None

    def test_unit_ideal(self):
        sb = standard_basis([P("1 + x")])
        assert sb.quotient_dim() == 0
        assert sb.quotient_basis == ()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            standard_basis([Poly.zero(2)])

    def test_rejects_three_variables(self):
        with pytest.raises(ValueError):
            standard_basis([Poly.variable(3, 0), Poly.variable(3, 1), Poly.variable(3, 2)])

    def test_fk5_tjurina_staircase(self):
        p, q = fk_components(5)
        sb = standard_basis([P("x*y"), p, q])
        assert sb.quotient_dim() == 13

    def test_completion_example_needing_spolys(self):
        # (y^2 - x^3, x*y): x^4 and y^3 join the leading ideal only through
        # combinations of the generators.
        sb = standard_basis([P("y^2 - x^3"), P("x*y")])
        assert outer_corners(sb.quotient_basis) == ((1, 1), (0, 2), (4, 0))
        assert sb.quotient_dim() == 5 == intersection_at_origin(P("y^2 - x^3"), P("x*y"))


class TestMacaulayOracle:
    """The colength of the Macaulay elimination against the resultant oracle."""

    def test_stabilized_values(self):
        for f, g, colength in [("x", "y", 1), ("-3*x^2", "2*y", 2),
                               ("y^2 - x^3", "y^2 + x^3", 6)]:
            assert standard_basis([P(f), P(g)]).quotient_dim() == colength
            assert intersection_at_origin(P(f), P(g)) == colength

    def test_infinite_colength_is_none(self):
        # x and x*y share the curve x = 0; x alone cuts out a line
        assert standard_basis([P("x"), P("x*y")]).quotient_dim() is None
        assert intersection_at_origin(P("x"), P("x*y")) is None
        assert standard_basis([P("x")]).quotient_dim() is None


class TestTruncationFloor:
    def test_independent_linear_parts_certify_at_one(self):
        gens = [P("2*x - y + x*y^3"), P("x + y^2")]
        sb = standard_basis(gens)
        assert sb.truncation == 1
        assert sb.quotient_dim() == 1

    def test_growth_from_two(self):
        gens = [P("y"), P("y + x^5")]
        sb = standard_basis(gens)
        assert sb.quotient_dim() == 5
        assert sb.truncation == 5

    def test_unit_generator(self):
        sb = standard_basis([P("1 + x*y")])
        assert sb.quotient_dim() == 0
        assert sb.truncation == 0


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        sb = standard_basis([P("x"), P("y^2")])
        assert sb.normal_form(P("x^2 + y^3")).is_zero

    def test_radial_square_membership(self):
        sb = standard_basis([P("-y"), P("x")])
        assert sb.normal_form(P("(x*y*(x-y))^2")).is_zero

    def test_fk5_square_not_member(self):
        p, q = fk_components(5)
        sb = standard_basis([p, q])
        assert not sb.normal_form(P("(x*y)^2")).is_zero

    def test_normal_form_respects_ideal(self):
        rng = random.Random(11)
        sb = standard_basis([P("y^2 - x^3"), P("x*y")])
        for _ in range(10):
            z = random_nonzero_poly(rng, max_degree=3)
            member = z * P("y^2 - x^3") + random_nonzero_poly(rng, max_degree=2) * P(
                "x*y"
            )
            assert sb.normal_form(member).is_zero


class TestCanonicalCoordinates:
    def test_difference_lies_in_ideal(self):
        rng = random.Random(19)
        sb = standard_basis([P("y^2 - x^3"), P("x*y")])
        staircase = set(sb.quotient_basis)
        for _ in range(10):
            p = random_nonzero_poly(rng, max_degree=5)
            coords = sb.reduce_to_coordinates(p)
            assert set(coords) <= staircase
            representative = Poly(2, coords)
            assert sb.normal_form(p - representative).is_zero

    def test_members_have_zero_coordinates(self):
        sb = standard_basis([P("-3*x^2"), P("2*y")])
        assert sb.reduce_to_coordinates(P("y^2 - x^3")) == {}


class TestMultOperator:
    def test_radial_zero_operator(self):
        sb = standard_basis([P("-y"), P("x")])
        op = mult_operator(sb, P("x*y*(x-y)"))
        assert op.basis == ((0, 0),)
        assert op.columns == ({},)

    def test_cusp_zero_operator(self):
        sb = standard_basis([P("-3*x^2"), P("2*y")])
        op = mult_operator(sb, P("y^2 - x^3"))
        assert op.basis == ((0, 0), (1, 0))
        assert op.is_zero()

    def test_shift_operator(self):
        sb = standard_basis([P("x"), P("y^3")])
        op = mult_operator(sb, P("y"))
        assert op.basis == ((0, 0), (0, 1), (0, 2))
        assert op.columns == ({1: 1}, {2: 1}, {})
        assert kernel_and_rank(op) == (1, 2)
        assert op.compose(op).compose(op).is_zero()

    def test_rejects_infinite_quotient(self):
        sb = standard_basis([P("x")])
        with pytest.raises(ValueError):
            mult_operator(sb, P("y"))


class TestKernelRank:
    def test_zero_operator(self):
        op = QuotientOperator(((0, 0), (1, 0)), [{}, {}])
        assert kernel_and_rank(op) == (2, 0)

    def test_identity(self):
        n = 4
        columns = [{j: Fraction(1)} for j in range(n)]
        op = QuotientOperator(tuple((i, 0) for i in range(n)), columns)
        assert kernel_and_rank(op) == (0, 4)

    def test_empty(self):
        op = QuotientOperator((), [])
        assert kernel_and_rank(op) == (0, 0)


_RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))


def _local_polys(min_order, max_degree):
    """Nonzero polynomials in x, y with rational coefficients, of bounded order and degree."""
    monomials = [
        (i, d - i) for d in range(min_order, max_degree + 1) for i in range(d + 1)
    ]
    terms = st.dictionaries(st.sampled_from(monomials), _RATIONALS, min_size=1, max_size=6)
    return terms.map(lambda t: Poly(2, t))


class TestIntegerGenerators:
    """The Macaulay rows see each generator as its primitive integer term map."""

    def test_term_map_is_the_primitive_part(self):
        g = P("-3/4*x^2 + 9/2*x*y - 3/8*y^3")
        (terms,) = localalg._integer_generators([g, Poly.zero(2)])
        assert terms == {(2, 0): -2, (1, 1): 12, (0, 3): -1}

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        st.lists(_local_polys(1, 4), min_size=1, max_size=3),
        st.booleans(),
        st.lists(_RATIONALS, min_size=5, max_size=5),
        _local_polys(0, 6),
    )
    def test_scaled_generators_give_the_same_quotient(self, gens, bounded, scales, probe):
        # a nonzero rational scale, negative leads and denominators included,
        # changes neither the staircase nor the coordinates of a class
        if bounded:
            # initial forms x^3 and y^3: the quotient is finite
            gens = gens + [P("-2/5*x^3 + 7/3*x^2*y^2"), P("3/4*y^3 - 5*x^4*y")]
        plain = standard_basis(gens)
        scaled = standard_basis([g * c for g, c in zip(gens, scales)])
        assert scaled.truncation == plain.truncation
        assert scaled.quotient_basis == plain.quotient_basis
        if plain.quotient_basis is not None:
            assert scaled.reduce_to_coordinates(probe) == plain.reduce_to_coordinates(probe)


class TestSympyReference:
    """The engine against sympy's Groebner bases of I + m^N.

    I + m^N is m-primary, so its global quotient is the local one.  At the
    certified N both I + m^N and I + m^(N+1) must have the engine's
    dimension, which is Nakayama's certificate that m^N lies in I, and g^2
    must be a member exactly when the engine says so.
    """

    @staticmethod
    def reference(sympy, gens, degree):
        x, y = sympy.symbols("x y")
        exprs = [sympy_expr(g, (x, y)) for g in gens]
        exprs += [x**i * y**(degree - i) for i in range(degree + 1)]
        basis = sympy.groebner(exprs, x, y, order="grevlex")
        leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
        dim = sum(
            1
            for d in range(degree)
            for m in ((d - j, j) for j in range(d + 1))
            if not any(a <= m[0] and b <= m[1] for a, b in leads)
        )
        return dim, basis

    # the corpora of the seeded resultant check in test_polynomials and of
    # acceptance criterion 5
    @pytest.mark.parametrize("seed, max_degree, count", [(29, 3, 8), (20260823, 5, 25)])
    def test_seeded_corpus(self, seed, max_degree, count):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        rng, divisors = random.Random(seed), random.Random(seed + 1)
        checked = members = 0
        while checked < count:
            f = random_nonzero_poly(rng, max_degree=max_degree, min_order=1)
            g = random_nonzero_poly(rng, max_degree=max_degree, min_order=1)
            sb = standard_basis([f, g])
            if sb.quotient_basis is None:
                continue
            n = sb.truncation
            assert self.reference(sympy, [f, g], n + 1)[0] == sb.quotient_dim()
            dim, basis = self.reference(sympy, [f, g], n)
            assert dim == sb.quotient_dim()
            h = random_nonzero_poly(divisors, max_degree=2, min_order=1)
            member = basis.reduce(sympy_expr(h * h, (x, y)))[1] == 0
            assert member == sb.normal_form(h * h).is_zero
            members += member
            checked += 1
        assert 0 < members < count


class TestHighCorner:
    """Germs whose quotients sit far below the degree of their generators."""

    def test_milnor_number_of_sparse_germ(self):
        start = time.perf_counter()
        germ = FoliationGerm(
            P("1/2*x^7*y + 8*x^6*y^2 + 3/2*x^6*y - 7/3*x^4*y^3 + 3*y^6 - x*y^3 + 1/4*x"),
            P("6*x^6*y^2 - 2*x*y"),
        )
        assert milnor_foliation(germ) == 7
        assert time.perf_counter() - start < 1.0

    def test_check_bs_on_exact_form(self):
        start = time.perf_counter()
        f = P("-6*x^2*y^2 + x*y^3 + 7/2*x^3 - 1/4*x*y + 6*y^2")
        report = check_briancon_skoda(
            FoliationGerm(f.diff(0), f.diff(1)), BalancedEquation(CurveGerm(f))
        )
        assert report.data["mu"] == 1
        assert report.data["member_normal_form"] is True
        assert time.perf_counter() - start < 1.0


def dense_macaulay(gens, truncation):
    """Columns below ``truncation`` and the reduced row echelon form, over Fraction.

    A reference for the integer engine: the whole Macaulay matrix of the
    multiples x^a * g of the generators, cut off at ``truncation``, as dense
    ``Fraction`` rows, eliminated by Gauss-Jordan.  Returns the columns in
    the local order and {pivot column: its row, with 1 at the pivot}.
    """
    columns = sorted(
        ((d - j, j) for d in range(truncation) for j in range(d + 1)), key=column_key
    )
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in gens:
        for d in range(truncation):
            for j in range(d + 1):
                row = [Fraction(0)] * len(columns)
                for (a, b), c in g.items():
                    if a + b + d < truncation:
                        row[index[(a + d - j, b + j)]] = c
                if any(row):
                    rows.append(row)
    pivots = {}
    for col in range(len(columns)):
        lead = next((r for r in rows if r[col]), None)
        if lead is None:
            continue
        rows.remove(lead)
        lead = [v / lead[col] for v in lead]
        support = [i for i, v in enumerate(lead) if v]
        for r in rows + list(pivots.values()):
            factor = r[col]
            if factor:
                for i in support:
                    r[i] -= factor * lead[i]
        pivots[col] = lead
    return columns, pivots


class TestDenseFractionReference:
    """The integer engine against dense Fraction elimination at N + 1.

    At truncation N + 1 the reference must have a free column in every
    degree below N and none in degree N, which is the certified N; its free
    columns are the staircase, and its reduced rows give the coordinates of
    every polynomial, hence every column of sigma.
    """

    @staticmethod
    def reference(gens, n):
        columns, pivots = dense_macaulay(gens, n + 1)
        free = tuple(m for i, m in enumerate(columns) if i not in pivots)
        assert {sum(m) for m in free} == set(range(n))

        def coordinates(p):
            vector = {columns.index(m): c for m, c in p.items() if sum(m) < n}
            out = {}
            for i, m in enumerate(columns):
                if i not in pivots and sum(m) < n:
                    value = vector.get(i, 0) - sum(
                        c * pivots[k][i] for k, c in vector.items() if k in pivots
                    )
                    if value:
                        out[m] = value
            return out

        return free, coordinates

    def compare(self, gens, g, probes):
        sb = standard_basis(gens)
        assert sb.quotient_basis is not None
        free, coordinates = self.reference(gens, sb.truncation)
        assert sb.quotient_basis == free
        for p in probes:
            assert sb.reduce_to_coordinates(p) == coordinates(p)
        index = {m: i for i, m in enumerate(free)}
        sigma = mult_operator(sb, g)
        for b, column in zip(free, sigma.columns):
            expected = coordinates(Poly.monomial(b) * g)
            assert column == {index[m]: v for m, v in expected.items()}

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_germ_corpus_ideals(self, seed):
        # the shapes of the germ corpus: df and (f, f_x, f_y) for f of
        # order >= 3 and degree <= 4, and random (P, Q) and (P, Q, h)
        rng = random.Random(20261020 + seed)
        checked = 0
        while checked < 4:
            f = random_nonzero_poly(rng, max_degree=4, max_terms=5, min_order=3)
            p = random_nonzero_poly(rng, max_degree=4, max_terms=5, min_order=1)
            q = random_nonzero_poly(rng, max_degree=4, max_terms=5, min_order=1)
            probes = [random_nonzero_poly(rng, max_degree=6) for _ in range(3)]
            for gens, g in (
                ([f.diff(0), f.diff(1)], f),
                ([f, f.diff(0), f.diff(1)], p),
                ([p, q], f),
                ([p, q, f], p * q),
            ):
                if any(h.is_zero for h in gens):
                    continue
                if standard_basis(gens).quotient_basis is not None:
                    self.compare(gens, g, probes)
                    checked += 1

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_long_tails(self, seed):
        # rows whose terms reach far past the certified N: chart-germ pairs
        # (an invertible linear part plus terms up to degree 9, mu = 1, as at
        # the projective-ladder points), and x^a + ..., y^b + ... whose
        # second terms lie past N = a + b - 1
        rng = random.Random(20261120 + seed)

        def tail(low, high):
            return random_nonzero_poly(rng, max_degree=high, max_terms=5, min_order=low)

        for _ in range(3):
            a, b, c, d = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
            if a * d == b * c:
                continue
            gens = [P("x") * a + P("y") * b + tail(2, 9), P("x") * c + P("y") * d + tail(2, 9)]
            self.compare(gens, tail(1, 9), [tail(0, 9), tail(0, 4)])
            assert standard_basis(gens).truncation == 1
        for _ in range(3):
            a, b = rng.randint(2, 5), rng.randint(2, 5)
            gens = [
                P(f"x^{a}") * rng.randint(1, 5) + tail(a + b, a + b + 4),
                P(f"y^{b}") * rng.randint(-5, -1) + tail(a + b, a + b + 4),
            ]
            self.compare(gens, tail(1, 4), [tail(0, 2 * (a + b)), tail(a + b - 1, a + b + 2)])
            assert standard_basis(gens).truncation == a + b - 1

    @pytest.mark.parametrize("k", range(3, 9))
    def test_fk_ladder(self, k):
        p, q = fk_components(k)
        self.compare([p, q], P("x*y"), [P("x*y"), P("x^3*y^2 - 2*x*y^5 + y^7")])

    @pytest.mark.parametrize("n", range(5, 9))
    def test_hamiltonian_ladder(self, n):
        f = P(f"y^{n} - x^{n + 1} + x^{n - 1}*y^{n - 2}")
        self.compare([f.diff(0), f.diff(1)], f, [f * f, P(f"x^{n}*y + 3/7*y^2")])

    def test_non_isolated_pair_stays_infinite(self):
        # x divides both: every degree keeps a free column up to the Bezout
        # bound 3^2 = 9, past which the engine gives up on finiteness
        gens = [P("x*y"), P("x^2 + x^3")]
        sb = standard_basis(gens)
        assert sb.quotient_basis is None and sb.truncation is None
        columns, pivots = dense_macaulay(gens, 10)
        free = {sum(m) for i, m in enumerate(columns) if i not in pivots}
        assert free == set(range(10))

    def test_fk4_sigma_entry_by_entry(self):
        p, q = fk_components(4)
        g = P("x*y")
        sb = standard_basis([p, q])
        sigma = mult_operator(sb, g)
        index = {m: i for i, m in enumerate(sb.quotient_basis)}
        assert len(sigma.columns) == sb.quotient_dim() == 28
        for b, column in zip(sb.quotient_basis, sigma.columns):
            coordinates = sb.reduce_to_coordinates(Poly.monomial(b) * g)
            assert column == {index[m]: v for m, v in coordinates.items()}
