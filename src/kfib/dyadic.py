"""The method names of a dyadic type that nothing builds: every sum is a
plain ``(N, e)`` integer pair.  The benchmark's tracer still patches these
ten names on ``Dyadic``, so they stay, each raising TypeError, until its
next change drops that hook and deletes this file (ROADMAP item 2).
"""


def _gone(*args):
    raise TypeError("Dyadic has no arithmetic: sums are (N, e) integer pairs")


class Dyadic:
    __slots__ = ()
    __add__ = __radd__ = __sub__ = __rsub__ = __neg__ = __abs__ = _gone
    __mul__ = __rmul__ = scale_pow2 = as_integer = _gone
