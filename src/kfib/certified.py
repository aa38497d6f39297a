"""Midpoint-radius balls: approximations that carry exact error bounds.

A CertifiedReal is a pair (approx, err) of exact rationals guaranteeing
|approx - true| <= err.  Arithmetic on the pair is exact and propagates
the bound conservatively, so any comparison derived from certified values
stays rigorous.

Exact arithmetic lets denominators grow without limit: a power r**m of a
ball with a b-bit denominator carries m*b bits.  ``rounded(prec)`` keeps
them short, as in ball arithmetic (J. van der Hoeven, "Ball arithmetic",
2009; F. Johansson, "Arb", IEEE Trans. Computers 2017): the midpoint goes
to the nearest point of the 2**-prec grid, that rounding error is added to
the radius, and the radius is rounded up to a dyadic with a short
mantissa.  Rounding only ever widens the ball, so it still encloses the
true value.  Values that are never rounded stay exact.
"""

from collections import namedtuple
from fractions import Fraction

#: mantissa bits of a rounded radius; the radius only has to be an upper
#: bound, so a few significant bits are all it needs
_RADIUS_BITS = 30


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _round_up(r: Fraction) -> Fraction:
    """The least dyadic with a _RADIUS_BITS-bit mantissa that is >= r >= 0."""
    num, den = r.numerator, r.denominator
    shift = _RADIUS_BITS - (num.bit_length() - den.bit_length())
    if shift >= 0:
        return Fraction(-((-num << shift) // den), 1 << shift)
    return Fraction(-((-num) // (den << -shift)) << -shift)


class CertifiedReal(namedtuple("CertifiedReal", "approx err")):
    """An immutable ball, the record of exact rationals ``approx`` and ``err >= 0``,
    with ball arithmetic in place of the tuple's ``+`` and ``*``, and no order."""

    __slots__ = ()

    def __new__(cls, approx, err):
        approx, err = _frac(approx), _frac(err)
        if err < 0:
            raise ValueError("error bound must be nonnegative")
        return tuple.__new__(cls, (approx, err))

    def _unordered(self, other):
        raise TypeError("balls are not ordered: compare their lo and hi")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @classmethod
    def exact(cls, value) -> "CertifiedReal":
        return cls(value, 0)

    # -- interval endpoints --------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.approx - self.err

    @property
    def hi(self) -> Fraction:
        return self.approx + self.err

    # -- rounding ------------------------------------------------------

    def rounded(self, prec: int) -> "CertifiedReal":
        """This ball with its midpoint on the 2**-prec grid (prec >= 0).

        The midpoint is rounded to nearest; the radius grows by exactly
        that rounding error and is then rounded up to _RADIUS_BITS bits.
        """
        num, den = self.approx.numerator, self.approx.denominator
        scaled = num << prec
        m = (2 * scaled + den) // (2 * den)
        moved = Fraction(abs(scaled - m * den), den << prec)
        return CertifiedReal(Fraction(m, 1 << prec), _round_up(self.err + moved))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CertifiedReal):
            return other
        if isinstance(other, (int, Fraction)):
            return CertifiedReal.exact(other)
        return None

    def __neg__(self):
        return CertifiedReal(-self.approx, self.err)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CertifiedReal(self.approx + other.approx, self.err + other.err)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CertifiedReal(self.approx - other.approx, self.err + other.err)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        err = (
            abs(self.approx) * other.err
            + abs(other.approx) * self.err
            + self.err * other.err
        )
        return CertifiedReal(self.approx * other.approx, err)

    __rmul__ = __mul__

    def reciprocal(self) -> "CertifiedReal":
        margin = abs(self.approx) - self.err
        if margin <= 0:
            raise ZeroDivisionError("certified interval contains zero")
        # |1/x - 1/y| = |x - y| / |x y| <= err / (|approx| * margin)
        return CertifiedReal(1 / self.approx, self.err / (abs(self.approx) * margin))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def power(self, m: int, prec: int | None = None) -> "CertifiedReal":
        """self**m by binary powering, every product rounded to ``prec``.

        With ``prec=None`` nothing is rounded and the midpoint is exactly
        approx**m.  The radius is then (|approx| + err)**m - |approx|**m,
        never more than the mean-value bound m * (|approx| + err)**(m-1) * err.
        A negative m inverts the power of -m.
        """

        def fit(x: CertifiedReal) -> CertifiedReal:
            return x if prec is None else x.rounded(prec)

        if m < 0:
            return fit(self.power(-m, prec).reciprocal())
        result = CertifiedReal.exact(1)
        base = self
        while m:
            if m & 1:
                result = fit(result * base)
            m >>= 1
            if m:
                base = fit(base * base)
        return result

    def __pow__(self, m: int):
        if not isinstance(m, int):
            return NotImplemented
        return self.power(m)
