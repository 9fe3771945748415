"""Exact coefficient rings: the integers, the rationals and prime fields.

ScalarRing alone decides the canonical form of an element; the matrix and
algebra layers finish their raw int and Fraction arithmetic with ring.finish.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index


class RingError(ValueError):
    pass


def q_canon(v):
    """The canonical Q form of an int or Fraction: an int when integral."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ScalarRing:
    """One of Z, Q or F_p, with exact arithmetic of unbounded magnitude.

    Elements are plain ``int`` for Z and F_p (canonical residues in [0, p)).
    A Q element is an ``int`` when it is integral and a ``fractions.Fraction``
    with denominator > 1 otherwise; the form is unique, and Fraction(n) equals
    and hashes like n.  Only div divides a Q element, since int / int is a
    float.  Instances are immutable and hashable.
    """

    kind: str  # "Z" | "Q" | "Fp"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise RingError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p >= 2**64:
                raise RingError("prime modulus must be < 2**64")
            if not is_prime(self.p):
                raise RingError(f"{self.p} is not prime")
        elif self.p != 0:
            raise RingError("modulus only makes sense for Fp")
        # finish(v): the canonical element of a raw int or Fraction that ring arithmetic
        # produced.  Matrix operations call it per entry, so each form is a cheap call.
        p = self.p
        finish = (lambda v: v % p) if self.kind == "Fp" else q_canon if self.kind == "Q" else index
        object.__setattr__(self, "finish", finish)

    # -- structure ---------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    zero, one = 0, 1  # canonical in every ring

    def of_int(self, n: int):
        return self.finish(n)

    def is_canonical(self, v) -> bool:
        """Whether v is a canonical element, the form finish gives."""
        if type(v) is Fraction:
            return self.kind == "Q" and v.denominator != 1
        return type(v) is int and (self.kind != "Fp" or 0 <= v < self.p)

    def canon(self, x):
        """Coerce x (int, Fraction or string) to a canonical ring element; never a float."""
        if type(x) is not int:
            if isinstance(x, str):
                return self.parse(x)
            if not isinstance(x, (int, Fraction)):
                raise RingError(f"{x!r} is not an exact element of {self}")
            if x.denominator != 1:
                if self.kind == "Q":
                    return x
                raise RingError(f"{x} is not an element of {self}")
            x = x.numerator  # an int, also for a bool or an integral Fraction
        return self.finish(x)

    def neg(self, x):
        return self.finish(-x)

    def div(self, a, b):
        """The exact quotient a / b of canonical elements, itself canonical.

        Raises RingError when b is zero or, over Z, does not divide a.
        """
        if not self.p and type(a) is int and type(b) is int and b and not a % b:
            return a // b  # Z, or Q with an integral quotient; `not self.p` first, so F_p pays one test
        if self.kind == "Fp":
            if b % self.p == 0:
                raise RingError("division by zero")
            return a * pow(b, -1, self.p) % self.p
        if b == 0:
            raise RingError("division by zero")
        if self.kind == "Z":
            raise RingError(f"{b} does not divide {a} in Z")
        return q_canon(Fraction(a, b))

    def invert(self, x):
        return self.div(1, x)

    def is_unit(self, x) -> bool:
        if self.kind == "Z":
            return x in (1, -1)
        return x != self.zero if self.kind == "Q" else x % self.p != 0

    # -- decimal-string serialization (exact, never floats) -----------------

    def parse(self, s: str):
        """An element from a signed ASCII decimal; over Q also n/d and n.d forms."""
        s = s.strip()
        try:
            if _INTEGER.fullmatch(s):
                n = int(s)
            elif self.kind == "Q" and _RATIONAL.fullmatch(s):
                return q_canon(Fraction(s))
            else:
                raise ValueError(s)
        except (ValueError, ZeroDivisionError):
            raise RingError(f"cannot parse {s!r} as an element of {self}") from None
        if self.kind == "Fp" and not 0 <= n < self.p:
            raise RingError(f"{s!r} is not a canonical residue mod {self.p}")
        return n

    def format(self, x) -> str:
        return str(x)

    def __str__(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?([0-9]+/[0-9]+|[0-9]*\.[0-9]+|[0-9]+\.)")

ZZ = ScalarRing("Z")
QQ = ScalarRing("Q")


def GF(p: int) -> ScalarRing:
    return ScalarRing("Fp", p)
