"""Exact sparse polynomials in the formal parameters beta, D, C.

A scalar is a dictionary mapping exponent triples (beta-power, D-power,
C-power) to nonzero exact rational coefficients.  The zero polynomial is the
empty dict.  All bracket coefficients in the deformed current algebras live
in this ring, so every identity is decided by exact dictionary equality.

Coefficients may be Python ints or fractions.Fraction; an integral value is
held as an int (structure constants are integral), and only a division that
leaves a remainder makes a Fraction.  s_coeff enforces this on every value
that s_rational, s_monomial, s_iadd, s_scale and s_mul store.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple, Union

Exponent = Tuple[int, int, int]
Rat = Union[int, Fraction]
Scalar = Dict[Exponent, Rat]

_UNIT_EXP: Exponent = (0, 0, 0)
BETA: Exponent = (1, 0, 0)
DCOEF: Exponent = (0, 1, 0)
CCOEF: Exponent = (0, 0, 1)


def s_coeff(value: Rat) -> Rat:
    """value as an int where it is integral."""
    return value.numerator if value.denominator == 1 else value


def s_rational(value: Rat) -> Scalar:
    """Constant polynomial (empty dict for zero)."""
    if value == 0:
        return {}
    return {_UNIT_EXP: s_coeff(value)}


def s_monomial(exp: Exponent, coeff: Rat = 1) -> Scalar:
    if coeff == 0:
        return {}
    return {exp: s_coeff(coeff)}


def s_iadd(out: Scalar, b: Scalar) -> None:
    """In-place accumulate, used in hot loops."""
    for exp, c in b.items():
        v = out.get(exp, 0) + c
        if v == 0:
            out.pop(exp, None)
        else:
            out[exp] = s_coeff(v)


def s_scale(a: Scalar, factor: Rat) -> Scalar:
    if factor == 0:
        return {}
    return {exp: s_coeff(c * factor) for exp, c in a.items()}


def s_mul(a: Scalar, b: Scalar) -> Scalar:
    if not a or not b:
        return {}
    out: Scalar = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            v = out.get(exp, 0) + ca * cb
            if v == 0:
                out.pop(exp, None)
            else:
                out[exp] = s_coeff(v)
    return out


def s_format(a: Scalar) -> str:
    """Stable human-readable form, e.g. '-1/8*beta^2 + 3/16*C'."""
    if not a:
        return "0"
    parts = []
    for exp in sorted(a):
        coeff = a[exp]
        names = []
        for power, name in zip(exp, ("beta", "D", "C")):
            if power == 1:
                names.append(name)
            elif power > 1:
                names.append(f"{name}^{power}")
        body = "*".join(names)
        if body:
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        else:
            parts.append(str(coeff))
    text = " + ".join(parts)
    return text.replace("+ -", "- ")
