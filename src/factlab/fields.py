"""Exact scalar arithmetic: prime fields F_p (2 < p < 2**31) and QQ.

Prime-field elements are plain ints in [0, p); rationals are
fractions.Fraction.  A FieldSpec bundles the arithmetic so polynomial and
matrix code never touches the representation directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import NotPrime, PolySyntaxError

Scalar = Union[int, Fraction]

_P_MAX = 2**31

# Deterministic Miller-Rabin witnesses, valid for all n < 3_215_031_751.
_MR_WITNESSES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either F_p (kind='prime', 2 < p < 2**31) or QQ (kind='rational')."""

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind == "prime":
            if not (2 < self.p < _P_MAX):
                raise NotPrime(f"modulus {self.p} outside (2, 2^31)")
            if not is_prime(self.p):
                raise NotPrime(f"{self.p} is not prime")
        elif self.kind == "rational":
            if self.p:
                raise ValueError("rational field carries no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # --- element arithmetic ---------------------------------------------

    @property
    def is_prime_field(self) -> bool:  # the operations test self.p: 0 exactly for QQ
        return self.kind == "prime"

    @property
    def zero(self) -> Scalar:
        return 0 if self.p else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.p else Fraction(1)

    def of_int(self, n: int) -> Scalar:
        return n % self.p if self.p else Fraction(n)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p else a - b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p else -a

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p else a * b

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p) if self.p else 1 / Fraction(a)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def power(self, a: Scalar, e: int) -> Scalar:
        if self.p:
            return pow(a, e, self.p)
        return Fraction(a) ** e

    def sqrt(self, a: Scalar):
        """Principal square root, or None if a is not a square.

        Prime case: Tonelli-Shanks, canonicalized to min(r, p-r).
        Rational case: exact integer square roots of numerator/denominator.
        """
        if self.p:
            a %= self.p
            if a == 0:
                return 0
            if pow(a, (self.p - 1) // 2, self.p) != 1:
                return None
            r = _tonelli_shanks(a, self.p)
            return min(r, self.p - r)
        a = Fraction(a)
        if a < 0:
            return None
        if a == 0:
            return Fraction(0)
        ns, nd = _isqrt_exact(a.numerator), _isqrt_exact(a.denominator)
        if ns is None or nd is None:
            return None
        return Fraction(ns, nd)

    # --- text I/O ---------------------------------------------------------

    def parse_scalar(self, text: str) -> Scalar:
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                if self.p:
                    return self.div(int(num) % self.p, int(den) % self.p)
                return Fraction(int(num), int(den))
            return self.of_int(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise PolySyntaxError(f"bad scalar literal {text!r}") from exc

    def format_scalar(self, a: Scalar) -> str:
        return str(a)

    def spec_string(self) -> str:
        return f"Fp:{self.p}" if self.p else "QQ"


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "Fp:10007" or "QQ"."""
    text = text.strip()
    if text == "QQ":
        return FieldSpec("rational")
    if text.startswith("Fp:"):
        try:
            return FieldSpec("prime", int(text[3:]))
        except ValueError as exc:
            raise PolySyntaxError(f"bad field spec {text!r}") from exc
    raise PolySyntaxError(f"bad field spec {text!r}")


def _tonelli_shanks(a: int, p: int) -> int:
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _isqrt_exact(n: int):
    r = isqrt(n)
    return r if r * r == n else None


QQ = FieldSpec("rational")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime", p)
