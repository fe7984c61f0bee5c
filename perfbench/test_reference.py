"""Hand-worked cases for the benchmark's reference code.

Run with ``python3 -m pytest perfbench``.  The expected numbers are worked
by hand from the definitions (see README.md), not taken from meanderkit.
"""

import pytest

import reference as ref


def test_parse_and_text_round_trip():
    assert ref.parse(" 6|1 / 2|3|2 ") == ((6, 1), (2, 3, 2))
    assert ref.text((6, 1), (2, 3, 2)) == "6|1/2|3|2"
    for bad in ("3/4", "3|/3", "a/1", "0|1/1", "²/2", "1/1/1"):
        with pytest.raises(ValueError):
            ref.parse(bad)


def test_walk_hand_worked():
    # 6|1/2|3|2: one path through all seven vertices, index 0.
    assert ref.walk((6, 1), (2, 3, 2)) == (0, 1)
    assert ref.index((6, 1), (2, 3, 2)) == 0
    # 3/3: one cycle 1-3-1 and the fixed vertex 2, index 2.
    assert ref.walk((3,), (3,)) == (1, 1)
    assert ref.index((3,), (3,)) == 2
    # 16|2|4/5|17: the README's worked example of index 6.
    assert ref.index((16, 2, 4), (5, 17)) == 6
    # 1|4/2|3: the path 1-2-5-3-4.
    assert ref.walk((1, 4), (2, 3)) == (0, 1)


def test_frobenius_count_small_orders():
    # order 1: 1/1; order 2: 1|1/2 and 2/1|1 (2/2 is a cycle, 1|1/1|1 two
    # points); order 3 adds 2|1/3, 1|2/3, 3/2|1, 3/1|2 and 2|1/1|2, 1|2/2|1.
    assert ref.frobenius_count(1) == 1
    assert ref.frobenius_count(2) == 3
    assert ref.frobenius_count(3) == 9


def test_gcd_forms():
    assert ref.index_two_block(4, 6) == 1
    assert ref.index_two_block(1, 100000) == 0
    assert ref.index_four_block(5, 7, 4) == 0
    # the closed forms agree with the walk on both four-block shapes
    for a, b, c in [(2, 4, 2), (3, 3, 3), (5, 7, 4), (6, 2, 6)]:
        d = a + b - c
        if d >= 1:
            assert ref.index((a, b), (c, d)) == ref.index_four_block(a, b, c)
        assert ref.index((a + b + c,), (a, b, c)) == ref.index_four_block(a, b, c)
    for a, b in [(1, 1), (2, 4), (3, 9), (5, 8)]:
        assert ref.index((a, b), (a + b,)) == ref.index_two_block(a, b)


def test_homotopy_identity():
    # 3/3 is eliminated in one move C0(3): one circle and one center point.
    assert ref.homotopy_identity([3], 1, 1)
    assert not ref.homotopy_identity([2], 1, 1)
    # 2|1/2|1: C0(2) then C0(1).
    assert ref.homotopy_identity([2, 1], *ref.walk((2, 1), (2, 1)))


def test_spectrum_of_1_4_over_2_3():
    # Potentials along 1-2-5-3-4: phi = 0, 1, -1, -2, 0 on vertices 1..5.
    dims = {-2: 1, -1: 2, 0: 4, 1: 4, 2: 2, 3: 1}
    assert ref.admissible_count((1, 4), (2, 3)) == 15
    assert len(ref.admissible_pairs((1, 4), (2, 3))) == 15
    assert ref.spectrum_problems(dims, (1, 4), (2, 3)) == []
    assert ref.spectrum_problems({**dims, 3: 2}, (1, 4), (2, 3))
    assert ref.spectrum_problems({-1: 2, 0: 4, 1: 4, 3: 2}, (1, 4), (2, 3))
