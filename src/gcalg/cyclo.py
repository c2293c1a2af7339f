"""Exact arithmetic with rational combinations of roots of unity.

Every phase occurring in the generalized Clifford algebra on 2n generators
(the commutation factor q = exp(2*pi*i/N), its chosen square root zeta, and
all of their products) is an integer power of w = exp(i*pi/N), a primitive
2N-th root of unity.  Scalars are therefore stored as sparse maps from
exponents in [0, 2N) to rational coefficients, held as ``int`` when integral
and as ``Fraction`` otherwise.  Storage is deliberately not reduced modulo
the cyclotomic polynomial, which keeps printed exponents recognizable; zero
testing and equality reduce the coefficient polynomial modulo Phi_{2N} and
are exact.  Amplitudes of the representation are single terms r w^k, and
those take short cuts: products of two single terms add exponents, two
single terms are compared by a closed rule, and ``times_root`` rotates
exponents.  The roots w^k themselves are shared objects, one tuple per ring
order, which know their exponent, so rotating a root is one index and its
``root_exponent`` is a stored attribute.  Zero tests return at once for a
single term and fold exponents by w^N = -1 for an even order before they
reduce.  Floating point enters only through ``to_complex``, which exists
for display and sanity oracles, never for equality decisions.

:class:`ExactVector` is the one sparse vector over these scalars: a map from
keys to nonzero scalars.  Algebra elements (keyed by exponent vectors) and
qudit states (keyed by basis labels) are its subclasses.

Sums are merged by two rules.  A scalar's rationals, keyed by exponent, go
through ``_accumulate``, which drops an exponent the moment its coefficient
sums to zero: the constructor, ``+`` and a product of multi-term scalars
call it.  A vector's scalars, keyed by label or exponent vector, go through
``sum_terms``, which zero-tests a key only after all its contributions are
summed, since an unreduced scalar can be zero with nonzero entries: a
product sums its term pairs with it, ``+`` merges one operand into a copy
of the other, and ``eval``'s sum node merges each child into one running
map.  ``power_by_squaring`` serves every ``**`` in the package.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "AlgebraContext",
    "ContextMismatchError",
    "CycloScalar",
    "ExactVector",
    "admissible_zeta_exps",
    "cyclotomic_polynomial",
    "power_by_squaring",
    "sum_terms",
]


class ContextMismatchError(ValueError):
    """Two operands live in different rings or algebra contexts."""


def power_by_squaring(base, k: int, one, mul=operator.mul):
    """base^k for an int k >= 0 by square-and-multiply; ``one`` is base^0.

    Products are formed as ``mul(out, base)`` and ``mul(base, base)``.  The
    lowest set bit of k starts ``out`` at a power of base, so no product
    has ``one`` as a factor, and ``one`` is returned only for k = 0: k >= 1
    takes k.bit_length() - 1 squarings and k.bit_count() - 1 other products.
    """
    out = None
    while k:
        if k & 1:
            out = base if out is None else mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one if out is None else out


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Long division of integer polynomials; the divisor is monic and must
    # divide exactly (remainder zero), which holds for cyclotomic factors.
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dn] = c
        for j, d in enumerate(den):
            num[i - dn + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _rational(value) -> int | Fraction:
    """``value`` as an exact rational: an int when integral, else a Fraction.

    A float is refused with ``TypeError``: its binary value (0.1 is
    3602879701896397/2^55) is never the rational that was meant.  Strings
    such as ``"5/5"`` and Fractions are read exactly.
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"exact scalars take no floats, got {value!r}")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _accumulate(out: dict, pairs) -> dict:
    """Add (exponent, rational) pairs into ``out`` and return it.

    An exponent whose coefficient sums to zero is dropped at once, and a
    zero pair for an absent exponent adds nothing.  Exponents keep the
    order in which they first appear; one dropped and added again goes to
    the end.
    """
    for k, v in pairs:
        v = out.get(k, 0) + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients, constant term first, of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by Phi_d for every proper divisor d of m.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(2)
    (1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_row(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # The degree dn of Phi_m and its nonzero coefficients as (j - dn, d): one
    # reduction step subtracts c * d from position i + j - dn for each.
    phi = cyclotomic_polynomial(m)
    dn = len(phi) - 1
    return dn, tuple((j - dn, d) for j, d in enumerate(phi) if d)


class CycloScalar:
    """An element of Q(w), with w a primitive ``order``-th root of unity.

    ``coeffs`` maps exponents in [0, order) to nonzero rationals; the value
    represented is sum_k coeffs[k] * w^k.  A coefficient is an ``int`` or a
    ``Fraction``; the constructors store integral values as ``int``, and
    arithmetic on ints stays int.  The constructor takes a mapping only, from
    integer exponents (read with ``operator.index`` and reduced mod order) to
    exact rationals, and refuses floats with ``TypeError``.  Instances are
    immutable values and all arithmetic returns new objects.  ``==``
    compares the represented complex numbers exactly, so two scalars with
    different stored maps can still be equal; consequently the type is
    unhashable.  Two single terms are compared by the closed rule
    r w^a == s w^b iff (a = b and r = s) or (order even, a - b = order/2
    mod order and r = -s); every other pair is reduced modulo the
    cyclotomic polynomial.
    """

    __slots__ = ("order", "coeffs")

    __hash__ = None

    def __init__(self, order: int, coeffs=None):
        if not isinstance(order, int) or order < 1:
            raise ValueError("order must be a positive integer")
        self.order = order
        self.coeffs = _accumulate({}, [
            (operator.index(k) % order, _rational(v)) for k, v in (coeffs or {}).items()
        ])

    @classmethod
    def _raw(cls, order: int, clean: dict[int, int | Fraction]) -> CycloScalar:
        # Internal constructor for maps already in stored form.
        s = cls.__new__(cls)
        s.order = order
        s.coeffs = clean
        return s

    @classmethod
    def zero(cls, order: int) -> CycloScalar:
        return cls._raw(order, {})

    @classmethod
    def one(cls, order: int) -> CycloScalar:
        return cls._raw(order, {0: 1})

    @classmethod
    def rational(cls, order: int, value) -> CycloScalar:
        value = _rational(value)
        return cls._raw(order, {0: value} if value else {})

    @classmethod
    def root(cls, order: int, k: int) -> CycloScalar:
        """The root of unity w^k."""
        return cls._raw(order, {k % order: 1})

    def _coerce(self, other) -> CycloScalar | None:
        if isinstance(other, CycloScalar):
            if other.order != self.order:
                raise ContextMismatchError(
                    f"mixed ring orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloScalar.rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloScalar._raw(self.order, _accumulate(dict(self.coeffs), o.coeffs.items()))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> CycloScalar:
        return CycloScalar._raw(self.order, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.order
        if len(self.coeffs) == 1 and len(o.coeffs) == 1:
            (k1, v1), = self.coeffs.items()
            (k2, v2), = o.coeffs.items()
            return CycloScalar._raw(m, {(k1 + k2) % m: v1 * v2})
        return CycloScalar._raw(m, _accumulate({}, [
            ((k1 + k2) % m, v1 * v2)
            for k1, v1 in self.coeffs.items() for k2, v2 in o.coeffs.items()
        ]))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> CycloScalar:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers are not defined; conj() inverts unit scalars")
        return power_by_squaring(self, k, CycloScalar.one(self.order))

    def times_root(self, k: int) -> CycloScalar:
        """This scalar times w^k: every stored exponent shifted by k.

        The stored map equals that of ``self * CycloScalar.root(order, k)``.
        A root w^e (one term, int coefficient 1) gives the shared root w^(e+k).
        """
        m = self.order
        coeffs = self.coeffs
        if len(coeffs) == 1:
            (e, v), = coeffs.items()
            if type(v) is int and v == 1:
                return _ROOTS[m][(e + k) % m]
        return CycloScalar._raw(m, {(e + k) % m: v for e, v in coeffs.items()})

    def conj(self) -> CycloScalar:
        """Complex conjugate: w^k -> w^{-k}, rationals fixed."""
        m = self.order
        return CycloScalar._raw(m, {(-k) % m: v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        """Exact zero test: reduce modulo the cyclotomic polynomial.

        A single stored term is a nonzero rational times a root, never zero.
        For an even order 2N the exponents are first folded into [0, N) by
        w^N = -1, which Phi_2N respects since it divides x^N + 1.  The
        reduction steps over the nonzero coefficients of Phi only.
        """
        coeffs = self.coeffs
        if len(coeffs) < 2:
            return not coeffs
        m = self.order
        dn, steps = _reduction_row(m)
        size = m if m % 2 else m // 2  # w^(m/2) = -1 for an even order m
        rem = [0] * size
        for k, v in coeffs.items():
            if k < size:
                rem[k] += v
            else:
                rem[k - size] -= v
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c:
                for j, d in steps:
                    rem[i + j] -= c * d
        return not any(rem[:dn])

    def root_exponent(self) -> int | None:
        """The k in [0, order) with self == w^k, or None if self is no root of unity.

        A single stored term +-w^k is read off directly (-1 = w^(order/2) for
        even order); a single term with any other coefficient is no root; a
        longer map is compared exactly against every root.
        """
        m = self.order
        if len(self.coeffs) == 1:
            (k, v), = self.coeffs.items()
            if v == 1:
                return k
            if v == -1 and m % 2 == 0:
                return (k + m // 2) % m
            return None
        for k in range(m):
            if self == CycloScalar.root(m, k):
                return k
        return None

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, CycloScalar):
            if other.order != self.order:
                return False
        elif isinstance(other, (int, Fraction)):
            other = CycloScalar.rational(self.order, other)
        else:
            return NotImplemented
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            (a, r), = self.coeffs.items()
            (b, s), = other.coeffs.items()
            if a == b:
                return r == s
            m = self.order
            return m % 2 == 0 and (a - b) % m == m // 2 and r == -s
        return (self - other).is_zero()

    def to_complex(self) -> complex:
        """Float evaluation at w = exp(2*pi*i/order).  Display only."""
        m = self.order
        return sum(
            (float(v) * cmath.exp(2j * cmath.pi * k / m) for k, v in self.coeffs.items()),
            0j,
        )

    def to_json(self) -> dict:
        z = self.to_complex()
        return {
            "order": self.order,
            "coeffs": [[k, str(v)] for k, v in sorted(self.coeffs.items())],
            "approx": {"re": z.real, "im": z.imag},
        }

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.coeffs.items()))
        return f"CycloScalar({self.order}, {{{body}}})"


def sum_terms(pairs, into=None) -> dict:
    """Sum (key, nonzero scalar) contributions into a map with no zero values.

    The map is ``into``, merged in place, or a new one.  All contributions
    to a key, the one ``into`` held included, are added in order before
    that key is zero-tested.  Stored maps are unreduced, so pruning a
    partial sum the moment it vanishes would change the stored (and
    printed) form of the final sum.  A key with a single contribution is
    not tested: the ring is a field, and the contribution is nonzero.  Keys
    keep the order in which they first appear; a key pruned by an earlier
    call and summed into again goes to the end.  ``x + y`` is this call on
    ``y``'s terms and a copy of ``x``'s map, so merging the children of a sum
    into one map, one call per child, is the left fold out = out + child
    without a copy per child: the same stored forms and key order.
    """
    out = {} if into is None else into
    summed = set()
    for key, value in pairs:
        if key in out:
            out[key] = out[key] + value
            summed.add(key)
        else:
            out[key] = value
    for key in summed:
        if out[key].is_zero():
            del out[key]
    return out


class ExactVector:
    """A sparse vector with exact coefficients in the ring of an AlgebraContext.

    ``terms`` maps keys to nonzero scalars; the empty map is the zero vector.
    The constructor reads each coefficient with ``ctx.scalar``, so it takes
    rationals too.  Subclasses validate and normalize keys in ``_key``.
    Every constructor and operation prunes sums that reduce to zero, so two
    vectors are equal iff their maps are termwise equal.  Instances are
    immutable values and unhashable, like their scalars.
    """

    __slots__ = ("ctx", "terms")

    __hash__ = None

    def __init__(self, ctx: AlgebraContext, terms=None):
        self.ctx = ctx
        pairs = []
        for key, coeff in (terms or {}).items():
            key, coeff = self._key(key), ctx.scalar(coeff)
            if not coeff.is_zero():
                pairs.append((key, coeff))
        self.terms = sum_terms(pairs)

    @classmethod
    def _raw(cls, ctx: AlgebraContext, terms: dict):
        # Internal constructor for maps already free of zero coefficients.
        v = cls.__new__(cls)
        v.ctx = ctx
        v.terms = terms
        return v

    def _check_ctx(self, other: ExactVector):
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"{type(self).__name__}s from different contexts")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_ctx(other)
        return self._raw(self.ctx, sum_terms(other.terms.items(), dict(self.terms)))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw(self.ctx, {k: -c for k, c in self.terms.items()})

    def _scaled(self, value):
        s = self.ctx.scalar(value)
        if s.is_zero():
            return self._raw(self.ctx, {})
        # A nonzero scalar times a nonzero coefficient stays nonzero: the
        # value ring is a field, so no pruning is needed here.
        return self._raw(self.ctx, {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (CycloScalar, int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {c}" for k, c in sorted(self.terms.items()))
        return f"{type(self).__name__}(N={self.ctx.N}, n={self.ctx.n}, {{{body}}})"


def admissible_zeta_exps(N: int) -> tuple[int, ...]:
    """Exponents e for which zeta = w^e satisfies zeta^2 = q and zeta^(N^2) = 1.

    Odd N admits only w^(N+1) = -exp(i*pi/N); even N admits both square
    roots of q, with the plus root w first.
    """
    if N % 2:
        return (N + 1,)
    return (1, N + 1)


class _SharedRoot(CycloScalar):
    """The root w^exp, stored as {exp: 1}: one shared object per exponent and order."""

    __slots__ = ("exp",)

    def __init__(self, order: int, exp: int):
        self.order = order
        self.coeffs = {exp: 1}
        self.exp = exp

    def times_root(self, k: int) -> CycloScalar:
        m = self.order
        return _ROOTS[m][(self.exp + k) % m]

    def root_exponent(self) -> int:
        return self.exp


class _SharedRoots(dict):
    """Ring order -> the tuple of shared roots w^0 .. w^(order-1), built on first use.

    ``times_root`` and the context's ``one``, ``omega``, ``q`` and ``zeta``
    hand out these objects, so rotating a root amplitude is one index.
    """

    def __missing__(self, order: int) -> tuple[_SharedRoot, ...]:
        roots = self[order] = tuple(_SharedRoot(order, k) for k in range(order))
        return roots


_ROOTS = _SharedRoots()


@lru_cache(maxsize=None)
def _zero(order: int) -> CycloScalar:
    return CycloScalar.zero(order)


@dataclass(frozen=True)
class AlgebraContext:
    """The pair (N, n) plus the chosen exponent e with zeta = w^e.

    N is the common order of the 2n generators (and of q = w^2); n is the
    number of qudits.  ``zeta_exp`` defaults to the canonical admissible
    choice: N + 1 for odd N, 1 for even N.
    """

    N: int
    n: int
    zeta_exp: int | None = None

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError("N must be an integer >= 2")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be an integer >= 1")
        allowed = admissible_zeta_exps(self.N)
        if self.zeta_exp is None:
            object.__setattr__(self, "zeta_exp", allowed[0])
        elif self.zeta_exp not in allowed:
            raise ValueError(
                f"zeta_exp {self.zeta_exp} is not an admissible square-root "
                f"exponent for N={self.N}; allowed: {allowed}"
            )

    @classmethod
    def from_sign(cls, N: int, n: int, sign: str | None = None) -> AlgebraContext:
        """Build a context from the user-facing '+'/'-' square-root choice.

        '-' selects -exp(i*pi/N) (the only admissible root for odd N);
        '+' selects +exp(i*pi/N) and is valid for even N only.
        """
        if sign is None:
            return cls(N, n)
        if sign == "-":
            return cls(N, n, N + 1)
        if sign == "+":
            if N % 2:
                raise ValueError(
                    f"zeta sign '+' is inadmissible for odd N={N}: "
                    "+exp(i*pi/N) is not an N^2-th root of unity"
                )
            return cls(N, n, 1)
        raise ValueError(f"zeta sign must be '+' or '-', got {sign!r}")

    @property
    def order(self) -> int:
        """Order 2N of the root-of-unity ring holding every phase."""
        return 2 * self.N

    @property
    def num_generators(self) -> int:
        return 2 * self.n

    @property
    def dim(self) -> int:
        return self.N**self.n

    def zero(self) -> CycloScalar:
        """The zero scalar, one shared object per ring order."""
        return _zero(self.order)

    def one(self) -> CycloScalar:
        return _ROOTS[self.order][0]

    def scalar(self, value) -> CycloScalar:
        """``value``, a rational or a scalar of this ring, as a scalar of this ring."""
        if not isinstance(value, CycloScalar):
            return CycloScalar.rational(self.order, value)
        if value.order != self.order:
            raise ContextMismatchError("scalar ring does not match the context")
        return value

    def omega(self, k: int = 1) -> CycloScalar:
        """The root w^k, exponent reduced mod 2N."""
        return _ROOTS[self.order][k % self.order]

    def q(self, k: int = 1) -> CycloScalar:
        """The commutation phase q^k = w^{2k}."""
        return _ROOTS[self.order][2 * k % self.order]

    def zeta(self, k: int = 1) -> CycloScalar:
        """The chosen square root of q, raised to the k-th power."""
        return _ROOTS[self.order][self.zeta_exp * k % self.order]
