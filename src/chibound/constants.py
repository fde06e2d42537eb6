"""The quantitative constant block, computed exactly.

At the scales involved the decimal expansions do not fit in memory (the top
of the grid has ~10^22 digits), so constants are held as exact products of
prime powers with big-integer exponents.  Comparisons reduce to exponent
deltas; materialization to a plain int is available behind a digit guard.
epsilon must be 1/m for a positive integer m (every grid point): then all
ceilings are ceilings of integers and the representation is exact end to
end.  Any other epsilon gives R an exponent of at least 3^(2t), which for
t >= 10 has more than 10^10 digits, so it is refused up front.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

DIGIT_GUARD = 2_000_000


def _log2_int(x: int) -> float:
    """log2 of a positive int of any size."""
    bl = x.bit_length()
    if bl <= 53:
        return math.log2(x)
    top = x >> (bl - 53)
    return math.log2(top) + (bl - 53)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer as a product base^exponent over sorted bases.

    Bases are primes, except that integers too large to factor enter as
    atomic bases of their own; downstream monomial arithmetic keeps them
    shared, so exponent-delta comparison stays sound.
    """

    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_int(cls, n: int) -> "FactoredInt":
        if n < 1:
            raise ValueError("only positive integers")
        if n == 1:
            return cls(())
        if n < 10 ** 12:
            return cls(tuple(sorted(_factorize(n).items())))
        return cls(((n, 1),))

    def __mul__(self, other: "FactoredInt") -> "FactoredInt":
        combined = dict(self.factors)
        for b, e in other.factors:
            combined[b] = combined.get(b, 0) + e
        return FactoredInt(tuple(sorted((b, e) for b, e in combined.items() if e)))

    def __pow__(self, e: int) -> "FactoredInt":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return FactoredInt(())
        return FactoredInt(tuple((b, x * e) for b, x in self.factors))

    def log2(self) -> float:
        return sum(e * _log2_int(b) for b, e in self.factors)

    def log10(self) -> float:
        return self.log2() * math.log10(2)

    def digits10(self) -> int:
        return int(self.log10()) + 1

    def to_int(self, guard: int = DIGIT_GUARD) -> int:
        if self.digits10() > guard:
            raise ValueError(
                f"about {self.digits10():.2e} digits exceeds the guard of {guard}")
        out = 1
        for b, e in self.factors:
            out *= b ** e
        return out

    def compare(self, other: "FactoredInt") -> int:
        """-1, 0, or 1, decided exactly by exponent deltas.

        Mixed-sign deltas fall back to materialization under the digit
        guard; beyond that the comparison is refused rather than guessed.
        """
        delta = dict(self.factors)
        for b, e in other.factors:
            delta[b] = delta.get(b, 0) - e
        delta = {b: e for b, e in delta.items() if e}
        if not delta:
            return 0
        if all(e > 0 for e in delta.values()):
            return 1
        if all(e < 0 for e in delta.values()):
            return -1
        num = FactoredInt(tuple(sorted((b, e) for b, e in delta.items() if e > 0)))
        den = FactoredInt(tuple(sorted((b, -e) for b, e in delta.items() if e < 0)))
        lo_n, hi_n = num.log2() * 0.9999999, num.log2() * 1.0000001
        lo_d, hi_d = den.log2() * 0.9999999, den.log2() * 1.0000001
        if lo_n > hi_d:
            return 1
        if hi_n < lo_d:
            return -1
        a, b = num.to_int(), den.to_int()
        return (a > b) - (a < b)


@dataclass(frozen=True)
class PaperConstants:
    """The derived constant tower for given (t, ell, epsilon, c)."""

    t: int
    ell: int
    epsilon: Fraction
    c: int
    r_const: FactoredInt
    n_const: FactoredInt
    z_const: FactoredInt
    w_const: FactoredInt
    d_const: FactoredInt

    def step2_inequalities(self) -> tuple[bool, bool]:
        """The two self-consistency inequalities on N, ell, epsilon, R."""
        m = self.epsilon.denominator
        lhs = (self.n_const ** 2) * \
            (FactoredInt.from_int(self.ell) * self.n_const ** (self.t // 2)) ** m
        first = lhs.compare(self.n_const ** m) >= 0
        second = lhs.compare(self.r_const * self.n_const ** 2) >= 0
        return first, second

    def beta_display_bound(self) -> float:
        """Display-only ceiling on the degeneracy exponent; not certified."""
        return 100 * self.t ** 5 / float(self.epsilon) ** (2 * self.t + 1)

    def summary(self) -> dict:
        return {
            "t": self.t, "ell": self.ell, "epsilon": str(self.epsilon),
            "c": self.c,
            "log10": {"R": self.r_const.log10(), "N": self.n_const.log10(),
                      "Z": self.z_const.log10(), "W": self.w_const.log10(),
                      "d": self.d_const.log10()},
            "log2": {"R": self.r_const.log2(), "N": self.n_const.log2(),
                     "Z": self.z_const.log2(), "W": self.w_const.log2(),
                     "d": self.d_const.log2()},
            "beta_display_bound": self.beta_display_bound(),
        }


def paper_constants(t: int, ell: int, epsilon: Union[int, float, str, Fraction],
                    c: int = 1) -> PaperConstants:
    """Exact R, N, Z, W, d for the given parameters.

    t must be even and at least 10, ell at least 2, epsilon = 1/m for a
    positive integer m, c a positive integer.  A float stands for 1/m when
    it is the float nearest to 1/m, so 0.1 is read as 1/10.
    """
    if t < 10 or t % 2:
        raise ValueError("t must be even and at least 10")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if isinstance(epsilon, float):
        m = round(1 / epsilon) if 0 < epsilon <= 1 and 1 / epsilon < math.inf else 0
        eps = Fraction(1, m) if m >= 1 and 1 / m == epsilon else None
    else:
        eps = Fraction(epsilon)
    if eps is None or not 0 < eps <= 1 or eps.numerator != 1:
        shown = repr(epsilon) if eps is None else str(eps)
        raise ValueError(f"epsilon must be 1/m for a positive integer m, not {shown}")
    if c < 1:
        raise ValueError("c must be a positive integer")
    m = eps.denominator
    r_exp = 2 * t ** 4 * m ** (2 * t)
    r_const = FactoredInt.from_int(2 * t) * \
        FactoredInt.from_int(2 * t ** 3 * ell) ** r_exp
    n_const = (r_const * FactoredInt.from_int(2 * t * ell)) ** 2
    z_inner = (n_const ** 2) * \
        (FactoredInt.from_int(ell) * n_const ** (t // 2)) ** m
    z_const = FactoredInt.from_int(3) * z_inner
    w_const = FactoredInt.from_int(2 * t ** 3) * z_const ** 2
    d_const = FactoredInt.from_int(c) * w_const ** 2
    return PaperConstants(t, ell, eps, c, r_const, n_const, z_const,
                          w_const, d_const)
