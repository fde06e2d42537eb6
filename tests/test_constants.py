import math
from fractions import Fraction

import pytest

from chibound.constants import FactoredInt, paper_constants


def test_factored_int_basics():
    a = FactoredInt.from_int(12)
    assert a.factors == ((2, 2), (3, 1))
    assert (a * a).to_int() == 144
    assert (a ** 3).to_int() == 12 ** 3
    assert a.compare(FactoredInt.from_int(12)) == 0
    assert a.compare(FactoredInt.from_int(11)) == 1
    assert a.compare(FactoredInt.from_int(13)) == -1
    assert abs(a.log2() - math.log2(12)) < 1e-9
    with pytest.raises(ValueError):
        FactoredInt.from_int(0)


def test_factored_int_mixed_comparison():
    # 2^10 * 3 vs 5^4 * 2: mixed deltas resolved by materialization
    a = FactoredInt.from_int(2) ** 10 * FactoredInt.from_int(3)
    b = FactoredInt.from_int(5) ** 4 * FactoredInt.from_int(2)
    assert a.compare(b) == (1 if 3072 > 1250 else -1)


def test_small_corner_matches_direct_arithmetic():
    pc = paper_constants(10, 2, 1)
    # R = 20 * 4000^20000, about 72k digits: small enough to materialize
    r = pc.r_const.to_int()
    assert r == 20 * 4000 ** 20000
    expect_log10 = 20000 * math.log10(4000) + math.log10(20)
    assert abs(pc.r_const.log10() - expect_log10) < 1e-6
    n = pc.n_const
    assert n.compare(pc.r_const ** 2 * FactoredInt.from_int(40) ** 2) == 0


def test_w_identity_and_positivity():
    pc = paper_constants(10, 3, Fraction(1, 2))
    recomputed = FactoredInt.from_int(2 * 10 ** 3) * pc.z_const ** 2
    assert pc.w_const.compare(recomputed) == 0
    assert pc.d_const.log2() > pc.w_const.log2() > pc.z_const.log2() > 0


def test_step2_inequalities_grid():
    for t in (10, 12, 14):
        for ell in (2, 3, 5):
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                pc = paper_constants(t, ell, eps)
                first, second = pc.step2_inequalities()
                assert first and second, (t, ell, eps)


def test_parameter_validation():
    with pytest.raises(ValueError):
        paper_constants(9, 2, 1)
    with pytest.raises(ValueError):
        paper_constants(11, 2, 1)
    with pytest.raises(ValueError):
        paper_constants(10, 1, 1)
    with pytest.raises(ValueError):
        paper_constants(10, 2, 2)
    with pytest.raises(ValueError):
        paper_constants(10, 2, 1, c=0)


def test_astronomical_values_stay_symbolic():
    pc = paper_constants(14, 5, Fraction(1, 4))
    assert pc.d_const.log10() > 1e20  # far beyond any materialization
    with pytest.raises(ValueError):
        pc.d_const.to_int()
    first, second = pc.step2_inequalities()
    assert first and second


def test_non_reciprocal_epsilon_refused_at_scale():
    with pytest.raises(ValueError):
        paper_constants(10, 2, Fraction(2, 3))


def test_non_reciprocal_epsilon_refused_up_front():
    # any epsilon other than 1/m gives R an exponent of at least 3^20 here,
    # so it is refused before any constant is computed
    for eps in (0.3, "2/5", Fraction(3, 4)):
        with pytest.raises(ValueError, match="1/m"):
            paper_constants(10, 2, eps)


def test_float_epsilon_read_as_the_nearest_reciprocal():
    # 0.1 is not 1/10 in binary, but it is the float nearest to 1/10
    for eps, m in ((0.1, 10), (0.5, 2), ("1/10", 10)):
        assert paper_constants(10, 2, eps).epsilon == Fraction(1, m)
    with pytest.raises(ValueError, match="not 0.3$"):
        paper_constants(10, 2, 0.3)


def test_summary_shape():
    pc = paper_constants(12, 2, Fraction(1, 2), c=3)
    s = pc.summary()
    assert s["t"] == 12 and s["c"] == 3
    assert set(s["log10"]) == {"R", "N", "Z", "W", "d"}
    assert s["beta_display_bound"] > 0
