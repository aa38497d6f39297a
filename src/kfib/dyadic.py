"""Exact dyadic rationals: integers scaled by a power of two."""

from .errors import IntegralityError


class Dyadic:
    """An exact rational ``num / 2**exp`` with ``exp >= 0``.

    Canonical form keeps ``num`` odd or zero (zero carries ``exp == 0``),
    so structural equality coincides with numeric equality.  Addition,
    subtraction, multiplication, and scaling by any power of two are
    closed and lossless.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            # a negative exponent just means "multiply by 2**-exp"
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0:
            trailing = (num & -num).bit_length() - 1
            shift = min(trailing, exp)
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    def as_integer(self) -> int:
        """The exact integer value; raises IntegralityError if fractional."""
        if self.exp != 0:
            raise IntegralityError(f"Dyadic({self.num}, {self.exp}) is not an integer")
        return self.num

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def scale_pow2(self, e: int) -> "Dyadic":
        """Multiply by 2**e (e may be negative)."""
        return Dyadic(self.num, self.exp - e)
