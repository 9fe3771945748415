"""Exact coefficient rings: the integers, the rationals and prime fields."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class RingError(ValueError):
    pass


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)  # immutable, so every Q zero and one can share them

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

    Elements are plain ``int`` for Z and F_p (canonical residues in [0, p))
    and ``fractions.Fraction`` for Q.  Instances are immutable and hashable.
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

    # -- structure ---------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def zero(self):
        return _Q_ZERO if self.kind == "Q" else 0

    @property
    def one(self):
        return _Q_ONE if self.kind == "Q" else 1

    def of_int(self, n: int):
        if self.kind == "Q":
            return Fraction(n)
        if self.kind == "Fp":
            return n % self.p
        return n

    def canon(self, x):
        """Coerce x (int, Fraction or string) to a canonical ring element."""
        if isinstance(x, str):
            return self.parse(x)
        if self.kind == "Q":
            return x if type(x) is Fraction else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise RingError(f"{x} is not an element of {self}")
            x = x.numerator
        return x % self.p if self.kind == "Fp" else x

    def neg(self, x):
        return -x % self.p if self.kind == "Fp" else -x

    def invert(self, x):
        if self.kind == "Q":
            if x == 0:
                raise RingError("division by zero")
            return 1 / Fraction(x)
        if self.kind == "Fp":
            if x % self.p == 0:
                raise RingError("division by zero")
            return pow(x, -1, self.p)
        if x in (1, -1):
            return x
        raise RingError(f"{x} is not a unit in Z")

    def is_unit(self, x) -> bool:
        if self.kind == "Z":
            return x in (1, -1)
        return x != self.zero if self.kind == "Q" else x % self.p != 0

    # -- decimal-string serialization (exact, never floats) -----------------

    def parse(self, s: str):
        s = s.strip()
        try:
            if self.kind == "Q":
                return Fraction(s)
            if "/" in s:
                raise ValueError(s)
            n = int(s)
        except (ValueError, ZeroDivisionError):
            raise RingError(f"cannot parse {s!r} as an element of {self}") from None
        if self.kind == "Fp":
            if not 0 <= n < self.p:
                raise RingError(f"{s!r} is not a canonical residue mod {self.p}")
            return n
        return n

    def format(self, x) -> str:
        return str(x)

    def __str__(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        return f"F{self.p}"


ZZ = ScalarRing("Z")
QQ = ScalarRing("Q")


def GF(p: int) -> ScalarRing:
    return ScalarRing("Fp", p)
