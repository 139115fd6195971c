import cmath
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_character_sum
from uniformity import counting, torus
from uniformity.binpoly import parse_polymap
from uniformity.errors import CostError, ValidationError
from uniformity.torus import (
    CharacterZ,
    TorusSeq,
    character_sum,
    irrationality_check,
    lift_gP,
    verify_section11,
    weyl_defect,
)


def test_torus_seq_evaluation():
    p = 7
    g = TorusSeq(p, [(0, 0), (3, 0), (0, 2)], levels=(1, 2))
    for n in range(-5, 15):
        want = (
            Fraction(3 * n % p, p),
            Fraction(2 * math.comb(n, 2) % p, p) if n >= 0 else None,
        )
        got = g(n)
        assert got[0] == want[0]
        if n >= 0:
            assert got[1] == want[1]


def test_depth_level_validation():
    # degree-2 coefficient touching a level-1 coordinate is rejected
    with pytest.raises(ValidationError):
        TorusSeq(7, [(0, 0), (1, 0), (1, 1)], levels=(1, 2))
    # but is fine if the numerator vanishes mod p there
    TorusSeq(7, [(0, 0), (1, 0), (7, 1)], levels=(1, 2))


def test_a_torus_of_dimension_zero_is_rejected():
    with pytest.raises(ValidationError, match="at least one coordinate"):
        TorusSeq(101, [()])
    with pytest.raises(ValidationError, match="at least one coordinate"):
        TorusSeq(101, [(), ()])


def test_character_modulus():
    assert CharacterZ((1, -2, 0)).modulus == 3
    assert CharacterZ((0, 0)).is_trivial
    assert not CharacterZ((1, 0)).is_trivial


def test_character_sum_matches_pointwise():
    p = 11
    g = TorusSeq(p, [(0,), (4,), (1,)])
    for k in ((1,), (2,), (-3,)):
        want = sum(
            cmath.exp(2j * cmath.pi * float(k[0] * g(n)[0])) for n in range(p)
        ) / p
        assert character_sum(g, k) == pytest.approx(want, abs=1e-12)


def test_linear_orbit_equidistributes():
    p = 101
    g = TorusSeq(p, [(0,), (1,)])
    rep = weyl_defect(g, 5)
    assert rep.value < 1e-12
    assert rep.n_characters == 10


def test_constant_sequence_defect_one():
    p = 11
    g = TorusSeq(p, [(3,), (0,)])
    rep = weyl_defect(g, 2)
    assert rep.value == pytest.approx(1.0)
    assert rep.argmax.modulus == 1


def test_irrationality_pass_and_fail():
    p = 101
    good = TorusSeq(p, [(0, 0), (10, 0), (0, 10)], levels=(1, 2))
    assert irrationality_check(good, 10).passed
    # zero numerator is annihilated by the character k = (1) on its block
    bad = TorusSeq(p, [(0, 0), (0, 0), (0, 10)], levels=(1, 2))
    rep = irrationality_check(bad, 10)
    assert not rep.passed
    assert rep.witness_level == 1
    assert rep.witness is not None and not rep.witness.is_trivial


def test_lift_matches_pointwise_composition():
    p = 7
    g = TorusSeq(p, [(0, 0), (3, 0), (0, 2)], levels=(1, 2))
    P = parse_polymap("x, x+y, x+2*y, x+y^2")
    lifted = lift_gP(g, P)
    assert lifted.dim == 8 and lifted.nvars == 2
    for k in ((1, 0, 0, 0, 0, 0, 0, 0), (0, 1, -1, 0, 2, 0, 0, 1)):
        got = character_sum(lifted, k)
        total = 0j
        for x in range(p):
            for y in range(p):
                vals = P(x, y)
                coords = [v for n in vals for v in g(int(n))]
                ph = sum(kc * float(c) for kc, c in zip(k, coords))
                total += cmath.exp(2j * cmath.pi * ph)
        assert got == pytest.approx(total / p**2, abs=1e-9)


def test_lift_with_a_constant_coefficient_matches_pointwise_composition():
    p = 7
    g = TorusSeq(p, [(5, 2), (3, 0), (0, 2)], levels=(1, 2))
    for text in ("x, x+y, x+2*y, x+y^2", "x+1, 2*y+3, x*y"):
        P = parse_polymap(text)
        lifted = lift_gP(g, P)
        assert lifted.taylor[(0, 0)]  # the constant term survives the lift
        for x in range(p):
            for y in range(p):
                want = [v for n in P(x, y) for v in g(int(n))]
                got = [0] * lifted.dim
                for (i, j), row in lifted.taylor.items():
                    for c, v in enumerate(row):
                        got[c] += v * math.comb(x, i) * math.comb(y, j)
                assert [Fraction(v % p, p) for v in got] == want, (text, x, y)


def test_a_torus_sequence_is_its_own_lift_along_the_identity():
    for p, g in (
        (11, TorusSeq(11, [(0,), (4,), (1,)])),
        (13, TorusSeq(13, [(5, 2), (3, 0), (0, 7)], levels=(1, 2))),
    ):
        assert (g.nvars, g.dim) == (1, g.m)
        lifted = lift_gP(g, parse_polymap("x"))
        assert lifted.taylor == {i: tuple(v % p for v in row) for i, row in g.taylor.items() if any(v % p for v in row)}
        for k in torus._enumerate_characters(g.m, 3):
            assert character_sum(g, k) == character_sum(lifted, k), k


def test_character_enumeration_matches_the_filtered_cube():
    for dim in range(1, 5):
        for K in range(0, 4):
            cube = [k for k in product(range(-K, K + 1), repeat=dim) if any(k) and sum(map(abs, k)) <= K]
            cube.sort(key=lambda k: (sum(map(abs, k)), k))
            assert torus._enumerate_characters(dim, K) == cube, (dim, K)
    assert len(torus._enumerate_characters(8, 2)) == 144


def test_character_sum_blocks_are_bitwise_equal(monkeypatch):
    p = 13
    g = TorusSeq(p, [(0, 0), (3, 0), (0, 5)], levels=(1, 2))
    lifted = lift_gP(g, parse_polymap("x, x+y, x+2*y, x+y^2"))
    chars = [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, -1, 0, 2, 0, 0, 1), (2, -1, 0, 3, 1, 0, -2, 1)]
    whole = [character_sum(lifted, k) for k in chars]
    assert torus._character_sums(lifted, chars) == whole
    # shifted by multiples of p the characters are the same, but too large for
    # the periodic e_p table: their phases are reduced mod p in int64
    far = [tuple(kc + 10**12 * p for kc in k) for k in chars]
    assert (2 * 10**12 * p + 1) * p > torus._TILE_ENTRIES
    splits = []
    real_grid_values = torus.grid_values

    def spy(poly, p, lo, hi):
        splits.append((lo, min(hi, p)))
        return real_grid_values(poly, p, lo, hi)

    monkeypatch.setattr(torus, "grid_values", spy)
    # bytes per grid point: the 7 coordinate tables in int16, the phase values
    # and one product (int32, or int64 once reduced) and the complex e_p values
    for batch, per_point in ((chars, 7 * 2 + 2 * 4 + 16), (far, 7 * 2 + 2 * 8 + 16)):
        for block in (5 * p, 4 * p + 3, p, 1):  # partial last block, one row, less than a row
            monkeypatch.setattr(torus, "_BLOCK_BYTES", block * per_point)
            splits.clear()
            assert torus._character_sums(lifted, batch) == whole, block
            rows = max(1, block // p)
            assert sorted(set(splits)) == [(lo, min(lo + rows, p)) for lo in range(0, p, rows)], block


def test_character_sum_rejections_and_p_two():
    with pytest.raises(ValidationError):  # composite p
        character_sum(TorusSeq(9, [(0,), (1,)], levels=(1,)), (1,))
    with pytest.raises(ValidationError):  # degree 3 >= p = 3 on the only axis
        character_sum(TorusSeq(3, [(0,), (0,), (0,), (1,)]), (1,))
    three = lift_gP(TorusSeq(5, [(0,), (1,)]), parse_polymap("x, x+y, x+z"))
    assert three.nvars == 3
    with pytest.raises(CostError):
        character_sum(three, (1, 0, 0))
    # the first prime with p^2 above the scan budget: rejected before any work
    p = 44_729
    assert 44_711**2 <= counting._GRID_BUDGET < p**2  # 44,711 is the prime before it
    big = lift_gP(TorusSeq(p, [(0,), (1,), (1,)]), parse_polymap("x, x+y^2"))
    assert big.nvars == 2
    with pytest.raises(CostError):
        character_sum(big, (1, 1))
    # p = 2 is prime: e(1/2) = -1 at every n, and e(n/2) averages to 0
    assert character_sum(TorusSeq(2, [(1,), (0,)]), (1,)) == pytest.approx(-1.0, abs=1e-15)
    assert character_sum(TorusSeq(2, [(0,), (1,)]), (1,)) == pytest.approx(0.0, abs=1e-15)


def test_a_term_past_p_that_cancels_in_every_phase_is_no_rejection():
    p = 3
    g = TorusSeq(p, [(0, 0), (1, 0), (0, 0), (1, 2)])  # C(n, 3) on both coordinates
    # (1, 1) cancels it, so the phase is n / 3; (1, 0) keeps it, and is rejected
    assert character_sum(g, (1, 1)) == pytest.approx(brute_character_sum(g.taylor, (1, 1), p, 1), abs=1e-15)
    with pytest.raises(ValidationError, match="exponent"):
        character_sum(g, (1, 0))


def test_level_respecting_restriction():
    p = 101
    g = TorusSeq(p, [(0, 0), (10, 0), (0, 10)], levels=(1, 2))
    rep = weyl_defect(g, 3, level_respecting=True)
    # single-level characters only: (k1, 0) and (0, k2)
    assert rep.n_characters == 12
    assert rep.value <= 1.0 + 1e-12


def test_enumeration_budget():
    p = 7
    g = TorusSeq(p, [(0,) * 8, (1,) * 8])
    with pytest.raises(CostError):
        weyl_defect(g, 10)


def test_section11_report_at_101():
    rep = verify_section11(101)
    assert rep["passed"]
    assert rep["alpha_numerator"] == 10
    assert rep["irrationality"].passed
    assert rep["annihilator_symbolic_zero"]
    assert not rep["modified_symbolic_zero"]
    t = rep["transfer"]
    assert t["parts_nonzero"] and t["sum_vanishes"]
    assert t["level1_part"] + t["level2_part"] == 0
    assert rep["defect_at_annihilator"] == pytest.approx(1.0, abs=1e-9)


def _first_maximum(seq, cands):
    """The first character of largest computed |character_sum|, each sum taken alone."""
    best, best_k = -1.0, None
    for k in cands:
        v = abs(character_sum(seq, k))
        if v > best:
            best, best_k = v, k
    return best, best_k


def test_weyl_defect_is_the_first_maximum_of_single_character_sums():
    p = 31
    g = TorusSeq(p, [(0, 0), (5, 0), (0, 5)], levels=(1, 2))
    cases = [
        (lift_gP(g, parse_polymap("x, x+y, x+2*y, x+y^2")), 2),
        (lift_gP(g, parse_polymap("x*y, x+y^2")), 3),
        (TorusSeq(p, [(1, 2), (4, 1), (1, 3)]), 4),
        (TorusSeq(p, [(0,), (1,)]), 3),  # every sum is exactly 0 in exact arithmetic
    ]
    for seq, K in cases:
        rep = weyl_defect(seq, K)
        best, best_k = _first_maximum(seq, torus._enumerate_characters(seq.dim, K))
        assert (rep.value.hex(), rep.argmax.coeffs) == (best.hex(), best_k), (seq.dim, K)
    rep = weyl_defect(g, 3, level_respecting=True)
    cands = sorted((k for lev in (1, 2) for k in torus._level_characters(g, lev, 3)), key=torus._modulus_lex)
    best, best_k = _first_maximum(g, cands)
    assert (rep.value.hex(), rep.argmax.coeffs) == (best.hex(), best_k)


_ONE_PARAMETER = ["x", "2*x+1", "x^2", "x, x+1", "C(x, 3)"]
_TWO_PARAMETER = ["x, x+y", "x*y, x+y^2", "x, x+y, x+2*y, x+y^2", "x+1, 2*y+3, x*y"]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_character_sums_of_lifts_match_the_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    m = data.draw(st.integers(1, 2))
    nums = data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=m, max_size=m), min_size=1, max_size=3))
    text = data.draw(st.sampled_from(_ONE_PARAMETER + _TWO_PARAMETER))
    lifted = lift_gP(TorusSeq(p, nums), parse_polymap(text))
    chars = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=lifted.dim, max_size=lifted.dim), min_size=1, max_size=4))
    chars = [tuple(k) for k in chars]
    # a phase term C(n, i) with i >= p is not a function of n mod p, and is rejected
    if any(max(idx) >= p and sum(kc * v for kc, v in zip(k, row)) % p for k in chars for idx, row in lifted.taylor.items()):
        with pytest.raises(ValidationError, match="exponent"):
            torus._character_sums(lifted, chars)
        return
    got = torus._character_sums(lifted, chars)
    for k, s in zip(chars, got):
        assert s == character_sum(lifted, k)
        assert s == pytest.approx(brute_character_sum(lifted.taylor, k, p, lifted.nvars), abs=1e-12), (text, k)


@pytest.mark.parametrize("p", [32_749, 32_771])  # the primes either side of 2^15
def test_one_parameter_sums_either_side_of_the_int16_tables(p):
    # int16 coordinate tables would wrap at p = 32,771 without a warning, so
    # only the values show whether the tables are wide enough
    g = TorusSeq(p, [(p - 1, 12_345), (p - 2, 20_000), (30_001, p - 3)])  # values up to p - 1
    rep = weyl_defect(g, 2)
    cands = torus._enumerate_characters(2, 2)
    sums = torus._character_sums(g, cands)
    for k in [(1, 0), (0, -1), (-1, 1)]:
        want = brute_character_sum(g.taylor, k, p, 1)
        assert sums[cands.index(k)] == pytest.approx(want, abs=1e-9), k
    best, best_k = _first_maximum(g, cands)
    assert (rep.value.hex(), rep.argmax.coeffs) == (best.hex(), best_k)
