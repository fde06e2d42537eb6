"""The quantitative constant block, computed exactly.

At the scales involved the decimal expansions do not fit in memory (the top
of the grid has ~10^22 digits), so constants are held as exact products of
prime powers with big-integer exponents.  Comparisons reduce to exponent
deltas; materialization to a plain int is available behind a digit guard.
When the reciprocal of epsilon is an integer (every grid point), all
ceilings are ceilings of integers and the representation is exact end to
end; otherwise the constants are materialized behind the guard with
integer nth-root rounding, or refused with a clear error.
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


def _nth_root_floor(x: int, n: int) -> int:
    """floor(x ** (1/n)) by Newton iteration on integers."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0, n >= 1")
    if x == 0:
        return 0
    guess = 1 << (-(-x.bit_length() // n))
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            break
        guess = nxt
    while guess ** n > x:
        guess -= 1
    return guess


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


def _as_fraction(x: Union[int, float, str, Fraction]) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        m = 1 / self.epsilon
        if m.denominator != 1:
            raise ValueError("inequality check requires 1/epsilon integral")
        m = int(m)
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


def _ceil_power(coeff: int, base: int, exponent: Fraction,
                guard: int) -> FactoredInt:
    """ceil(coeff * base^exponent) as a FactoredInt.

    Integral exponents stay in factored form; fractional ones are resolved
    by integer nth-root rounding, which requires materialization.
    """
    if exponent.denominator == 1:
        return FactoredInt.from_int(coeff) * \
            FactoredInt.from_int(base) ** int(exponent)
    p, q = exponent.numerator, exponent.denominator
    estimated_digits = (q * _log2_int(coeff) + p * _log2_int(base)) * 0.302
    if estimated_digits > guard:
        raise ValueError(
            "constants for this epsilon require ceilings of irrational powers "
            f"with ~{estimated_digits:.2e} digits; use epsilon = 1/m for the "
            "exact factored path")
    big = coeff ** q * base ** p
    root = _nth_root_floor(big, q)
    value = root if root ** q == big else root + 1
    return FactoredInt.from_int(value)


def paper_constants(t: int, ell: int, epsilon: Union[int, float, str, Fraction],
                    c: int = 1, guard: int = DIGIT_GUARD) -> PaperConstants:
    """Exact R, N, Z, W, d for the given parameters.

    t must be even and at least 10, ell at least 2, epsilon in (0, 1],
    c a positive integer.
    """
    eps = _as_fraction(epsilon)
    if t < 10 or t % 2:
        raise ValueError("t must be even and at least 10")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if c < 1:
        raise ValueError("c must be a positive integer")
    inv = 1 / eps
    base = 2 * t ** 3 * ell
    r_exp = 2 * t ** 4 * inv ** (2 * t)
    r_const = _ceil_power(2 * t, base, r_exp, guard)
    n_const = (r_const * FactoredInt.from_int(2 * t * ell)) ** 2
    if inv.denominator == 1:
        m = int(inv)
        z_inner = (n_const ** 2) * \
            (FactoredInt.from_int(ell) * n_const ** (t // 2)) ** m
        z_const = FactoredInt.from_int(3) * z_inner
    else:
        n_int = n_const.to_int(guard)
        x_int = ell * n_int ** (t // 2)
        inner = _ceil_power(n_int ** 2, x_int, inv, guard)
        z_const = FactoredInt.from_int(3) * inner
    w_const = FactoredInt.from_int(2 * t ** 3) * z_const ** 2
    d_const = FactoredInt.from_int(c) * w_const ** 2
    return PaperConstants(t, ell, eps, c, r_const, n_const, z_const,
                          w_const, d_const)
