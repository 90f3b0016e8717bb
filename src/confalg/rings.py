"""Exact univariate polynomial arithmetic over the rationals."""

from fractions import Fraction
from math import factorial


def frac(v):
    """Coerce to an exact rational: an int when the value is integral, a
    Fraction otherwise. Floats and bools are refused on purpose."""
    t = type(v)
    if t is int:
        return v
    if t is str:
        v = Fraction(v)
    elif t is not Fraction:
        raise TypeError("not an exact rational: %r" % (v,))
    return v.numerator if v.denominator == 1 else v


def div(a, b):
    """Exact quotient a / b. Two ints give an int when b divides a and a
    Fraction otherwise, never a float; other field elements (Fraction,
    RatFunc) divide as they define it, integral Fractions becoming ints."""
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    q = a / b
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def falling(n, k):
    """Falling factorial n(n-1)...(n-k+1); zero whenever 0 <= n < k."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def inv_factorial(k):
    return div(1, factorial(k))


class Poly:
    """Dense polynomial in D with rational coefficients.

    Coefficients are indexed by degree with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is int else frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def const(cls, c):
        return cls((frac(c),))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = frac(c)
        if c == 0:
            return Poly.zero()
        return Poly([a * c for a in self.coeffs])

    def shift(self, k):
        """Multiply by D^k."""
        if not self.coeffs:
            return self
        return Poly((0,) * k + self.coeffs)

    def __divmod__(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        q = [0] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree()]
            if top == 0:
                continue
            f = div(top, lead)
            q[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= f * b
        return Poly(q), Poly(rem)

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r.coeffs:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if not self.coeffs:
            return self
        return self.scale(div(1, self.leading()))

    @staticmethod
    def gcd(a, b):
        while b.coeffs:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def to_map(self):
        """JSON form: degree (as string) -> rational string, zeros omitted."""
        return {str(i): str(c) for i, c in enumerate(self.coeffs) if c}

    @classmethod
    def from_map(cls, m):
        if not isinstance(m, dict):
            raise TypeError("a polynomial map must be an object, got %r" % (m,))
        powers = {int(k): frac(v) for k, v in m.items()}
        if any(k < 0 for k in powers):
            raise ValueError("negative power in %r" % (m,))
        cs = [0] * (max(powers, default=-1) + 1)
        for k, v in powers.items():
            cs[k] = v
        return cls(cs)

    def text(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                v = "D" if i == 1 else "D^%d" % i
                term = v if c == 1 else ("-" + v if c == -1 else "%s*%s" % (c, v))
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self):
        return "Poly(%s)" % self.text()


class RatFunc:
    """Rational function num/den in D; den is monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.one()
        if not den.coeffs:
            raise ZeroDivisionError("zero denominator")
        if num.coeffs:
            g = Poly.gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading()
            if lead != 1:
                inv = div(1, lead)
                num = num.scale(inv)
                den = den.scale(inv)
        else:
            den = Poly.one()
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other.num.coeffs:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __repr__(self):
        if self.den == Poly.one():
            return "RatFunc(%s)" % self.num.text()
        return "RatFunc((%s)/(%s))" % (self.num.text(), self.den.text())


__all__ = ["frac", "div", "falling", "inv_factorial", "Poly", "RatFunc"]
