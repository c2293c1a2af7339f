"""Tests for the exact cyclotomic scalar layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcalg import run_suite
from gcalg.cli import MAX_N
from gcalg.cyclo import (
    AlgebraContext,
    ContextMismatchError,
    CycloScalar,
    _ROOTS,
    admissible_zeta_exps,
    cyclotomic_polynomial,
)
from helpers import literal_is_zero, scalar_from_json


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_base_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_degree_is_totient(self):
        for m in range(1, 31):
            assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)

    def test_product_over_divisors_rebuilds_x_to_m_minus_one(self):
        for m in range(1, 21):
            product = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    product = poly_mul(product, list(cyclotomic_polynomial(d)))
            expected = [-1] + [0] * (m - 1) + [1]
            assert product == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlgebraContext(1, 1)
        with pytest.raises(ValueError):
            AlgebraContext(3, 0)
        with pytest.raises(ValueError):
            AlgebraContext(3, 2, 1)  # plus root inadmissible for odd N
        AlgebraContext(4, 1, 1)
        AlgebraContext(4, 1, 5)
        with pytest.raises(ValueError):
            AlgebraContext(4, 1, 2)

    def test_defaults(self):
        assert AlgebraContext(3, 2).zeta_exp == 4
        assert AlgebraContext(5, 1).zeta_exp == 6
        assert AlgebraContext(2, 1).zeta_exp == 1
        assert AlgebraContext(4, 1).zeta_exp == 1
        assert admissible_zeta_exps(7) == (8,)
        assert admissible_zeta_exps(6) == (1, 7)

    def test_from_sign(self):
        assert AlgebraContext.from_sign(4, 1, "+").zeta_exp == 1
        assert AlgebraContext.from_sign(4, 1, "-").zeta_exp == 5
        # '-' with odd N is the canonical choice
        assert AlgebraContext.from_sign(3, 1, "-").zeta_exp == 4
        with pytest.raises(ValueError):
            AlgebraContext.from_sign(3, 1, "+")
        with pytest.raises(ValueError):
            AlgebraContext.from_sign(3, 1, "x")


class TestRootRelations:
    @pytest.mark.parametrize("N", range(2, 10))
    def test_omega_to_the_N_is_minus_one(self, N):
        ctx = AlgebraContext(N, 1)
        assert (ctx.one() + ctx.omega(N)).is_zero()

    @pytest.mark.parametrize("N", range(2, 10))
    def test_q_has_order_N(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.q() ** N == 1
        assert ctx.q() == ctx.omega(2)

    @pytest.mark.parametrize("N", range(2, 10))
    def test_zeta_is_unit(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.zeta().conj() * ctx.zeta() == 1

    @pytest.mark.parametrize("N", range(2, 10))
    def test_roots_have_unit_modulus_in_float_display(self, N):
        ctx = AlgebraContext(N, 1)
        for k in range(ctx.order):
            assert abs(abs(ctx.omega(k).to_complex()) - 1.0) < 1e-12

    def test_zeta_examples(self):
        # N=3: the canonical root is -exp(i*pi/3) = w^4
        assert AlgebraContext(3, 1).zeta() == CycloScalar.root(6, 4)
        # N=2: the default root is w = i
        ctx = AlgebraContext(2, 1)
        assert ctx.zeta() == ctx.omega(1)
        z = ctx.zeta().to_complex()
        assert abs(z - 1j) < 1e-12

    @pytest.mark.parametrize("N", range(2, 10))
    def test_zeta_squares_to_q_for_every_admissible_root(self, N):
        for exp in admissible_zeta_exps(N):
            ctx = AlgebraContext(N, 1, exp)
            assert (ctx.zeta() * ctx.zeta() - ctx.q()).is_zero()

    @pytest.mark.parametrize("N", [3, 5, 7, 9])
    def test_odd_square_roots_split(self, N):
        # (+exp(i*pi/N))^(N^2) = -1 while (-exp(i*pi/N))^(N^2) = +1
        ctx = AlgebraContext(N, 1)
        assert ctx.omega(1) ** (N * N) == -1
        assert ctx.omega(N + 1) ** (N * N) == 1

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_even_square_roots_both_work(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.omega(1) ** (N * N) == 1
        assert ctx.omega(N + 1) ** (N * N) == 1

    @pytest.mark.parametrize("N", [3, 5, 7, 9])
    def test_odd_canonical_zeta_is_a_power_of_q(self, N):
        ctx = AlgebraContext(N, 1)
        assert ctx.zeta() == ctx.q((N + 1) // 2)

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    def test_root_exponent(self, N):
        ctx = AlgebraContext(N, 1)
        m = ctx.order
        for k in range(m):
            assert ctx.omega(k).root_exponent() == k
            assert (-ctx.omega(k)).root_exponent() == (k + N) % m
            # w^k + 1 + w^N is stored with several terms but equals w^k.
            spread = ctx.omega(k) + ctx.one() + ctx.omega(N)
            assert len(spread.coeffs) > 1
            assert spread.root_exponent() == k
            assert (2 * ctx.omega(k)).root_exponent() is None
        # 1 + w^N is zero; 1 + w is no root of unity (|1 + w| > 1).
        assert (ctx.one() + ctx.omega(N)).root_exponent() is None
        assert (ctx.one() + ctx.omega(1)).root_exponent() is None


class TestScalarArithmetic:
    def test_is_zero_cube_root_sum(self):
        # 1 + w^2 + w^4 with m=6: w^2 is a primitive cube root of unity
        ctx = AlgebraContext(3, 1)
        s = ctx.one() + ctx.omega(2) + ctx.omega(4)
        assert s.is_zero()
        assert abs(s.to_complex()) < 1e-12

    def test_to_complex_examples(self):
        assert CycloScalar.one(6).to_complex() == 1 + 0j
        assert abs(AlgebraContext(2, 1).omega(1).to_complex() - 1j) < 1e-12
        z = AlgebraContext(3, 1).zeta().to_complex()
        assert abs(z.real + 0.5) < 1e-12
        assert abs(z.imag + math.sin(math.pi / 3)) < 1e-12

    def test_q_inverse_power(self):
        ctx = AlgebraContext(3, 1)
        assert ctx.q() * ctx.q(2) == 1

    def test_mismatched_orders_raise(self):
        a = CycloScalar.one(6)
        b = CycloScalar.one(8)
        with pytest.raises(ContextMismatchError):
            a + b
        with pytest.raises(ContextMismatchError):
            a * b
        assert (a == b) is False

    def test_equality_modulo_cyclotomic(self):
        # different stored maps, same value
        a = CycloScalar(6, {0: 1})
        b = CycloScalar(6, {2: -1, 4: -1})  # since 1 + w^2 + w^4 = 0
        assert a == b
        assert a == 1
        assert CycloScalar.zero(6) == 0

    def test_is_zero_agrees_with_float_oracle(self):
        rng = random.Random(20240817)
        zeros = 0
        for _ in range(1000):
            N = rng.randint(2, 9)
            m = 2 * N
            support = rng.sample(range(m), rng.randint(1, min(5, m)))
            s = CycloScalar(m, {k: rng.randint(-3, 3) for k in support})
            exactly = s.is_zero()
            numerically = abs(s.to_complex()) < 1e-9
            assert exactly == numerically
            zeros += exactly
        assert zeros > 0  # the sample must exercise both branches

    def test_is_zero_agrees_with_the_literal_reduction(self):
        # Every order 2..512: a random sparse scalar, an exact multiple of
        # Phi_m (zero), and that multiple plus one root (nonzero).  The
        # multiples have int coefficients, which keeps the oracle quick.
        rng = random.Random(1409)
        for m in range(2, 513):
            phi = cyclotomic_polynomial(m)
            terms = rng.randint(1, 4)
            sparse = CycloScalar(m, {rng.randrange(m): rng.choice([1, -1, 2, -3, Fraction(1, 2)])
                                     for _ in range(terms)})
            factor = {rng.randrange(m - len(phi) + 1): rng.choice([1, -1, 2, -3])
                      for _ in range(terms)}
            product = {}
            for a, x in factor.items():
                for b, d in enumerate(phi):
                    product[a + b] = product.get(a + b, 0) + x * d
            multiple = CycloScalar(m, product)
            shifted = multiple + CycloScalar.root(m, rng.randrange(m))
            for s, zero in ((sparse, None), (multiple, True), (shifted, False)):
                assert s.is_zero() == literal_is_zero(s), (m, s)
                assert zero is None or s.is_zero() == zero, (m, s)

    def test_json_round_trip(self):
        ctx = AlgebraContext(3, 1)
        s = ctx.scalar(Fraction(3, 2)) * ctx.omega(5) + ctx.q(-1)
        data = s.to_json()
        assert set(data) == {"order", "coeffs", "approx"}
        assert set(data["approx"]) == {"re", "im"}
        assert scalar_from_json(data) == s

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            CycloScalar.root(6, 1) ** -1


def _general_product(x, y):
    # The double loop of CycloScalar.__mul__, kept as the oracle of its
    # single-term branch.
    m = x.order
    out = {}
    for k1, v1 in x.coeffs.items():
        for k2, v2 in y.coeffs.items():
            k = (k1 + k2) % m
            w = out.get(k, 0) + v1 * v2
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def _stored(x):
    return [(k, type(v), v) for k, v in x.coeffs.items()]


_RATIONALS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


class TestUnitRootFastPath:
    def test_integral_coefficients_are_ints(self):
        assert type(CycloScalar.one(6).coeffs[0]) is int
        assert _stored(CycloScalar.rational(6, Fraction(3, 1))) == [(0, int, 3)]
        assert _stored(CycloScalar.root(6, 7)) == [(1, int, 1)]
        assert _stored(CycloScalar(6, {1: Fraction(4, 2), 2: Fraction(1, 2), 3: "5/5"})) == [
            (1, int, 2), (2, Fraction, Fraction(1, 2)), (3, int, 1),
        ]
        assert _stored(AlgebraContext(3, 1).zeta() * AlgebraContext(3, 1).q()) == [(0, int, 1)]

    def test_single_term_equality_matches_the_zero_test(self):
        for m in range(1, 13):
            for a in range(m):
                for b in range(m):
                    for r in _RATIONALS:
                        for s in _RATIONALS:
                            x = CycloScalar(m, {a: r})
                            y = CycloScalar(m, {b: s})
                            assert (x == y) == (x - y).is_zero(), (m, a, r, b, s)

    def test_single_term_product_matches_the_general_loop(self):
        for m in (1, 2, 6, 8):
            for a in range(m):
                for b in range(m):
                    for r in _RATIONALS:
                        for s in (1, -2, Fraction(1, 2)):
                            x = CycloScalar(m, {a: r})
                            y = CycloScalar(m, {b: s})
                            expected = _general_product(x, y).items()
                            assert _stored(x * y) == [(k, type(v), v) for k, v in expected]

    def test_times_root_equals_multiplying_by_the_root(self):
        rng = random.Random(6)
        for _ in range(500):
            m = rng.randint(1, 12)
            x = CycloScalar(m, {
                rng.randrange(m): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(0, 5))
            })
            k = rng.randint(-2 * m, 2 * m)
            product = x * CycloScalar.root(m, k)
            shifted = x.times_root(k)
            assert repr(shifted) == repr(product)
            assert _stored(shifted) == _stored(product)
        # The shared-root shortcut and the dict shift must agree on roots,
        # negated roots and rational multiples of one root, including a
        # stored Fraction(1) that is not the int 1 of a cached root.
        for _ in range(500):
            ctx = AlgebraContext(rng.randint(2, 6), 1)
            m = ctx.order
            j = rng.randrange(m)
            d = rng.randint(1, 4)
            x = rng.choice([
                ctx.omega(j),
                -ctx.omega(j),
                Fraction(rng.randint(-4, 4), d) * ctx.omega(j),
                (ctx.omega(j) * Fraction(1, d)) * d,
            ])
            k = rng.randint(-2 * m, 2 * m)
            product = x * CycloScalar.root(m, k)
            shifted = x.times_root(k)
            assert repr(shifted) == repr(product)
            assert _stored(shifted) == _stored(product)
            if x is ctx.omega(j):
                assert shifted is ctx.omega(j + k)

    def test_cached_roots_survive_a_suite_run(self):
        # times_root hands out the shared roots themselves; none may be altered,
        # and each must know its own exponent.
        assert all(r.passed for r in run_suite(AlgebraContext(4, 2)))
        for k in range(8):
            assert _stored(_ROOTS[8][k]) == [(k, int, 1)]
            assert _ROOTS[8][k].exp == k

    def test_shared_roots_read_their_exponent(self):
        # Every ring order the CLI allows.  The orders built here, about 18 MB
        # of roots, are dropped again when the test ends.
        built = [2 * N for N in range(2, MAX_N + 1) if 2 * N not in _ROOTS]
        try:
            for N in range(2, MAX_N + 1):
                m = 2 * N
                for k, root in enumerate(_ROOTS[m]):
                    assert root.root_exponent() == k
                    assert CycloScalar._raw(m, {k: 1}).root_exponent() == k
        finally:
            for m in built:
                del _ROOTS[m]


_orders = st.sampled_from([4, 6, 8, 10, 12])


@st.composite
def _scalars(draw, order):
    coeffs = {}
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, order - 1))
        coeffs[k] = coeffs.get(k, 0) + Fraction(
            draw(st.integers(-4, 4)), draw(st.integers(1, 4))
        )
    return CycloScalar(order, coeffs)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_laws(self, data):
        m = data.draw(_orders)
        a = data.draw(_scalars(m))
        b = data.draw(_scalars(m))
        c = data.draw(_scalars(m))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (-a) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_conj_is_an_involutive_automorphism(self, data):
        m = data.draw(_orders)
        a = data.draw(_scalars(m))
        b = data.draw(_scalars(m))
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-20, 20), st.integers(1, 9))
    def test_conj_fixes_rationals(self, num, den):
        s = CycloScalar.rational(10, Fraction(num, den))
        assert s.conj() == s
