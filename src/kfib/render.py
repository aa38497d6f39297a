"""Decimal rendering of approximate values.

A rational x known to within a rational err is shown to the digits err
supports, at most ``DIGITS_CAP`` after the point, and the printed bound
adds the rounding of that display to err, rounded up to two significant
digits.  Every step is an integer operation on numerators and
denominators: the decimal exponent starts from the bit lengths and is
raised by integer compares, and each rounding is one floor division.
"""

#: most digits an approximate value shows after the point
DIGITS_CAP = 400


def fixed(n: int, m: int, digits: int) -> str:
    """n/m (m > 0) rounded half to even at ``digits`` places after the point."""
    scaled, rest = divmod(n * 10**digits, m)
    if 2 * rest > m or 2 * rest == m and scaled & 1:
        scaled += 1
    sign, body = "-" if scaled < 0 else "", str(abs(scaled))
    if digits == 0:
        return sign + body
    body = body.rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def scientific(n: int, m: int) -> tuple[int, int, int]:
    """(e, n', m') with n/m = 10**e * n'/m' and 1 <= n'/m' < 10, for n, m > 0."""
    e = (n.bit_length() - m.bit_length() - 1) * 30103 // 100000 - 1  # <= log10 n/m
    n, m = (n * 10**-e, m) if e < 0 else (n, m * 10**e)
    while n >= 10 * m:
        m *= 10
        e += 1
    return e, n, m


def digits_for(bound, cap: int = DIGITS_CAP) -> int:
    """Digits after the point that a rational bound >= 0 supports, at most ``cap``."""
    n, m = bound.numerator, bound.denominator
    return min(cap, max(0, -scientific(n, m)[0])) if n > 0 else cap


def bound_decimal(n: int, m: int) -> str:
    """n/m (> 0) rounded up to two significant digits, in scientific notation."""
    e, n, m = scientific(n, m)
    tenths = -(-10 * n // m)  # ceil, in 10..100
    if tenths == 100:
        tenths, e = 10, e + 1
    return f"{tenths // 10}.{tenths % 10}e{e:+03d}"


def approx(x, err, digits: int) -> tuple[str, str]:
    """(x shown to ``digits`` places, the bound err + 1/(2*10**digits)) for
    rationals x and err >= 0, read through their numerators and denominators."""
    scale = 2 * 10**digits
    return (fixed(x.numerator, x.denominator, digits),
            bound_decimal(err.numerator * scale + err.denominator, err.denominator * scale))
