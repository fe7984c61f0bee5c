import random
from math import gcd

import pytest

from meanderkit import (
    FourBlockType,
    MeanderType,
    PreconditionError,
    family_biparabolic,
    family_parabolic,
    index_four_block,
    index_naive,
    index_two_block,
    parse_type,
)


def test_two_block_examples():
    assert index_two_block(2, 3) == 0
    assert index_two_block(4, 6) == index_naive(parse_type("4|6/10")) == 1
    assert index_two_block(5, 5) == index_naive(parse_type("5|5/10")) == 4


def test_two_block_exhaustive():
    for a in range(1, 21):
        for b in range(1, 21):
            assert index_two_block(a, b) == index_naive(MeanderType((a, b), (a + b,)))


def test_four_block_examples():
    t = FourBlockType("bottom-three", 1, 3, 1, 5)
    assert index_four_block(t) == 3 == index_naive(parse_type("5/1|3|1"))
    t = FourBlockType("top-two", 2, 3, 4, 1)
    assert index_four_block(t) == 0 == index_naive(parse_type("2|3/4|1"))


def test_four_block_repeated_pair_case():
    # c|a over c|a reduces by one component elimination to a/c... index a+c-1
    for a in range(1, 8):
        for c in range(1, 8):
            t = FourBlockType("top-two", c, a, c, a)
            assert index_four_block(t) == a + c - 1


def test_four_block_shape_validation():
    with pytest.raises(PreconditionError):
        FourBlockType("top-two", 1, 2, 3, 4)
    with pytest.raises(PreconditionError):
        FourBlockType("bottom-three", 1, 2, 3, 4)


def test_four_block_exhaustive_small():
    for total in range(2, 22):
        for a in range(1, total):
            for b in range(1, total - a):
                c = total - a - b
                t = FourBlockType("bottom-three", a, b, c, total)
                assert index_four_block(t) == index_naive(t.to_meander())
        for a in range(1, total):
            b = total - a
            for c in range(1, total):
                d = total - c
                t = FourBlockType("top-two", a, b, c, d)
                assert index_four_block(t) == index_naive(t.to_meander())


def test_four_block_flip_invariance():
    rng = random.Random(7)
    for _ in range(200):
        total = rng.randint(2, 30)
        a = rng.randint(1, total - 1)
        b = total - a
        c = rng.randint(1, total - 1)
        d = total - c
        t = FourBlockType("top-two", a, b, c, d)
        assert index_four_block(t) == index_four_block(FourBlockType("top-two", c, d, a, b))
        assert index_four_block(t) == index_naive(t.to_meander().flip())


def test_gcd_shift_identity():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        assert gcd(a, b) == gcd(a, a + b)


def test_family_parabolic_examples():
    m = family_parabolic(2, 1, 3)
    assert m == parse_type("2|3/5") and index_naive(m) == 0
    m = family_parabolic(4, 3, 1)
    assert m == parse_type("4|4|4|1/13") and index_naive(m) == 0


def test_family_parabolic_preconditions():
    with pytest.raises(PreconditionError):
        family_parabolic(2, 1, 4)  # gcd 2
    with pytest.raises(PreconditionError):
        family_parabolic(3, 1, 2)  # odd a
    with pytest.raises(PreconditionError):
        family_parabolic(2, 0, 1)


def test_family_biparabolic_examples():
    m = family_biparabolic(2, 3, 1, 1)
    assert m == parse_type("2|2|3/5|2") and index_naive(m) == 0
    m = family_biparabolic(2, 1, 0, 2)
    assert m == parse_type("2|2|1/1|2|2") and index_naive(m) == 0


def test_family_biparabolic_preconditions():
    with pytest.raises(PreconditionError):
        family_biparabolic(3, 2, 1, 1)  # odd a


def test_families_always_frobenius():
    rng = random.Random(3)
    for _ in range(150):
        a = 2 * rng.randint(1, 5)
        b = rng.choice([x for x in range(1, 12) if gcd(a, x) == 1])
        k = rng.randint(1, 5)
        assert index_naive(family_parabolic(a, k, b)) == 0
        copies = rng.randint(0, 4)
        kk = rng.randint(0, 4)
        if kk + copies >= 1:
            assert index_naive(family_biparabolic(a, b, kk, copies)) == 0
