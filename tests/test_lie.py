import random
from fractions import Fraction

import pytest

from meanderkit import (
    MeanderType,
    NotFrobeniusError,
    PreconditionError,
    ad_spectrum,
    canonical_functional,
    cybe_residual,
    enumerate_meanders,
    index_naive,
    index_oracle,
    kirillov_matrix,
    parse_type,
    principal_element,
    seaweed_positions,
    spectrum,
)

from meanderkit.lie import _bracket, _feval, _gauss_jordan, _sl_basis

from conftest import random_meander


def test_positions_golden():
    p = seaweed_positions(parse_type("1|2/3"))
    assert set(p.positions) == {(1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (1, 2), (1, 3)}
    assert seaweed_positions(parse_type("1|4/2|3")).dim == 15
    # single full blocks on both sides give the whole matrix algebra
    assert seaweed_positions(parse_type("4/4")).dim == 16


def test_position_count_formula():
    for n in range(1, 8):
        for m in enumerate_meanders(n):
            p = seaweed_positions(m)
            assert p.dim == (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2
            assert all((i, i) in set(p.positions) for i in range(1, n + 1))
    rng = random.Random(5)
    for _ in range(200):
        m = random_meander(rng, 12)
        p = seaweed_positions(m)
        assert p.dim == (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2


def test_kirillov_matrix_antisymmetric():
    rng = random.Random(17)
    for _ in range(30):
        m = random_meander(rng, 7)
        pattern = seaweed_positions(m)
        f = {p: rng.randint(-100, 100) for p in pattern.positions}
        mat = kirillov_matrix(pattern, f)
        for r in range(len(mat)):
            for c in range(len(mat)):
                assert mat[r][c] == -mat[c][r]


def test_index_oracle_golden():
    assert index_oracle(parse_type("1|2/3")) == 0
    assert index_oracle(parse_type("3/3")) == 2
    assert index_oracle(parse_type("2|1/2|1")) == 2


def test_index_oracle_random_agreement():
    rng = random.Random(321)
    for trial in range(60):
        m = random_meander(rng, 8)
        assert index_oracle(m, trials=5, seed=trial) == index_naive(m)


def test_canonical_functional_golden():
    assert canonical_functional(parse_type("1|2/3")) == {(1, 3): 1, (3, 2): 1}
    assert canonical_functional(parse_type("1/1")) == {}
    s = canonical_functional(parse_type("2/1|1"))
    assert s == {(2, 1): 1}


def test_canonical_functional_in_pattern():
    rng = random.Random(8)
    for _ in range(100):
        m = random_meander(rng, 10)
        support = canonical_functional(m)
        pattern = set(seaweed_positions(m).positions)
        assert set(support) <= pattern


def test_principal_element_golden():
    fhat = principal_element(parse_type("1|2/3"))
    assert fhat.is_diagonal
    assert fhat.diagonal() == [Fraction(1), Fraction(-1), Fraction(0)]


def test_principal_element_trivial():
    fhat = principal_element(parse_type("1/1"))
    assert fhat.diagonal() == [Fraction(0)]


def test_principal_element_diagonal_and_trace_zero():
    rng = random.Random(9)
    count = 0
    while count < 20:
        m = random_meander(rng, 8)
        if index_naive(m) != 0:
            continue
        count += 1
        fhat = principal_element(m)
        assert fhat.is_diagonal
        assert sum(fhat.diagonal()) == 0


def test_principal_element_rejects_non_frobenius():
    with pytest.raises(PreconditionError):
        principal_element(parse_type("3/3"))


def test_ad_spectrum_golden():
    assert ad_spectrum(parse_type("1|4/2|3")) == {-2: 1, -1: 2, 0: 4, 1: 4, 2: 2, 3: 1}
    assert ad_spectrum(parse_type("1/1")) == {}
    assert ad_spectrum(parse_type("1|2/3")) == {-1: 1, 0: 2, 1: 2, 2: 1}


def test_ad_spectrum_matches_combinatorial():
    rng = random.Random(31)
    count = 0
    while count < 20:
        m = random_meander(rng, 8)
        if index_naive(m) != 0:
            continue
        count += 1
        assert ad_spectrum(m) == spectrum(m)


def test_ad_spectrum_rejects_non_frobenius():
    with pytest.raises(NotFrobeniusError):
        ad_spectrum(parse_type("2/2"))


def test_cybe_residual_golden():
    assert cybe_residual(parse_type("1/1"))
    assert cybe_residual(parse_type("1|2/3"))
    assert cybe_residual(parse_type("1|4/2|3"))


def test_cybe_rejects_non_frobenius():
    with pytest.raises(NotFrobeniusError):
        cybe_residual(parse_type("3/3"))


def test_gauss_jordan_inverts_cybe_kirillov_matrix():
    for text in ("1|2/3", "1|4/2|3", "6|1/2|3|2", "2|3/5"):
        m = parse_type(text)
        basis = _sl_basis(m)
        f = canonical_functional(m)
        a = [[_feval(f, _bracket(x, y)) for y in basis] for x in basis]
        dim = len(a)
        identity = [[int(r == c) for c in range(dim)] for r in range(dim)]
        inv, nullspace = _gauss_jordan(a, identity)
        assert nullspace == []
        product = [
            [sum(a[r][k] * inv[k][c] for k in range(dim)) for c in range(dim)]
            for r in range(dim)
        ]
        assert product == identity


def test_gauss_jordan_inconsistent_and_singular():
    # x + y = 1 and 2x + 2y = 3 have no common solution
    assert _gauss_jordan([[1, 1], [2, 2]], [[1], [3]]) is None
    # rank one in three unknowns: a particular solution and a plane of kernel
    a = [[1, 2, 3], [2, 4, 6]]
    x, nullspace = _gauss_jordan(a, [[6], [12]])
    assert len(nullspace) == 2
    for vec in [[row[0] for row in x]] + nullspace:
        assert all(isinstance(v, Fraction) for v in vec)
    assert [sum(a[r][c] * x[c][0] for c in range(3)) for r in range(2)] == [6, 12]
    for vec in nullspace:
        assert [sum(a[r][c] * vec[c] for c in range(3)) for r in range(2)] == [0, 0]
