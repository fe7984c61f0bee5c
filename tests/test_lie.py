import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanderkit import (
    MeanderType,
    NotFrobeniusError,
    PreconditionError,
    ad_spectrum,
    canonical_functional,
    cybe_residual,
    enumerate_meanders,
    family_biparabolic,
    family_parabolic,
    index_naive,
    index_oracle,
    kirillov_matrix,
    parse_type,
    principal_element,
    seaweed_positions,
    spectrum,
)

from meanderkit.lie import (
    _bareiss,
    _bracket,
    _draw_prime,
    _feval,
    _is_prime,
    _kirillov_rows,
    _rank_mod,
    _sl_basis,
    _solve,
)
from meanderkit.winding import _frobenius_tree

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


def test_kirillov_matrix_is_the_bracket_form():
    # the slow route: F([e_ij, e_kl]) through the general bracket
    rng = random.Random(23)
    for _ in range(30):
        m = random_meander(rng, 7)
        pattern = seaweed_positions(m)
        f = {p: rng.randint(-3, 3) for p in pattern.positions}
        units = [{p: 1} for p in pattern.positions]
        expected = [[_feval(f, _bracket(x, y)) for y in units] for x in units]
        assert kirillov_matrix(pattern, f) == expected
        assert all(v for row in _kirillov_rows(pattern, f) for v in row.values())


def test_index_oracle_golden():
    assert index_oracle(parse_type("1|2/3")) == 0
    assert index_oracle(parse_type("3/3")) == 2
    assert index_oracle(parse_type("2|1/2|1")) == 2


def test_index_oracle_random_agreement():
    rng = random.Random(321)
    for trial in range(60):
        m = random_meander(rng, 8)
        assert index_oracle(m, trials=5, seed=trial) == index_naive(m)


def _dim(m):
    return (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2


def test_index_oracle_beyond_dimension_63():
    meanders = [
        family_parabolic(2, 6, 1),
        family_parabolic(6, 1, 5),
        family_parabolic(4, 2, 5),
        family_parabolic(2, 1, 11),
        family_biparabolic(4, 1, 2, 1),
        family_biparabolic(4, 3, 2, 1),
        family_biparabolic(6, 5, 1, 1),
    ]
    tree = [MeanderType(t, b) for t, b in _frobenius_tree(14)]
    meanders += random.Random(0).sample([m for m in tree if 64 <= _dim(m) <= 150], 4)
    assert all(64 <= _dim(m) <= 150 for m in meanders)
    assert max(map(_dim, meanders)) >= 140
    for seed, m in enumerate(meanders):
        assert index_oracle(m, seed=seed) == index_naive(m)


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
    frobenius = [
        m for n in range(1, 8) for m in enumerate_meanders(n) if index_naive(m) == 0
    ]
    assert len(frobenius) == 275
    for m in frobenius:
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


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_solve_inverts_cybe_kirillov_matrix():
    for text in ("1|2/3", "1|4/2|3", "6|1/2|3|2", "2|3/5"):
        m = parse_type(text)
        basis = _sl_basis(m)
        f = canonical_functional(m)
        a = [[_feval(f, _bracket(x, y)) for y in basis] for x in basis]
        dim = len(a)
        identity = [[int(r == c) for c in range(dim)] for r in range(dim)]
        d, y, nullspace = _solve(a, identity)
        assert nullspace == []
        assert _matmul(a, y) == [[d * v for v in row] for row in identity]


def test_solve_inconsistent_and_singular():
    # x + y = 1 and 2x + 2y = 3 have no common solution
    assert _solve([[1, 1], [2, 2]], [[1], [3]]) is None
    # rank one in three unknowns: a particular solution and a plane of kernel
    a = [[1, 2, 3], [2, 4, 6]]
    d, y, nullspace = _solve(a, [[6], [12]])
    assert len(nullspace) == 2
    for vec in [[row[0] for row in y]] + nullspace:
        assert all(isinstance(v, int) for v in vec)
    assert _matmul(a, y) == [[6 * d], [12 * d]]
    for vec in nullspace:
        assert _matmul(a, [[v] for v in vec]) == [[0], [0]]


def _fraction_rank(mat):
    """Rank by plain Gauss elimination over Fraction: the slow route."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][c] / rows[rank][c]
            rows[r] = [x - factor * p for x, p in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def _integer_systems(draw):
    """(A, B, c) with A = L R of inner width k, so that zero (k = 0) and
    rank-deficient matrices of every shape come up as well as full-rank
    ones; B = A X is consistent, and the column c may not be."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(nrows, ncols)))

    def matrix(r, c):
        entry = st.integers(-4, 4)
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    a = _matmul(matrix(nrows, k), matrix(k, ncols)) if k else [[0] * ncols for _ in range(nrows)]
    b = _matmul(a, matrix(ncols, draw(st.integers(0, 3))))
    return a, b, matrix(nrows, 1)


@given(_integer_systems())
@settings(max_examples=300)
def test_bareiss_solve_against_fraction_rank(system):
    a, b, c = system
    rank = _fraction_rank(a)
    assert len(_bareiss(a)[1]) == rank
    d, y, nullspace = _solve(a, b)
    assert d != 0
    assert _matmul(a, y) == [[d * v for v in row] for row in b]
    assert len(nullspace) == len(a[0]) - rank
    assert _fraction_rank(nullspace) == len(nullspace)
    for vec in nullspace:
        assert _matmul(a, [[v] for v in vec]) == [[0]] * len(a)
    solved = _solve(a, c)
    assert (solved is not None) == (_fraction_rank([ra + rc for ra, rc in zip(a, c)]) == rank)
    if solved is not None:
        assert _matmul(a, solved[1]) == [[solved[0] * row[0]] for row in c]


def _dict_rows(mat):
    return [dict(enumerate(row)) for row in mat]


def test_rank_mod_matches_bareiss_on_kirillov_matrices():
    rng = random.Random(41)
    p = _draw_prime(41)
    for n in range(1, 7):
        for m in enumerate_meanders(n):
            pattern = seaweed_positions(m)
            for _ in range(3):
                f = {q: rng.randint(-100, 100) for q in pattern.positions}
                rank = len(_bareiss(kirillov_matrix(pattern, f))[1])
                assert _rank_mod(_kirillov_rows(pattern, f), p) == rank


@given(_integer_systems())
@settings(max_examples=300)
def test_rank_mod_against_fraction_rank(system):
    a = system[0]
    assert _rank_mod(_dict_rows(a), _draw_prime(5)) == _fraction_rank(a)


def test_rank_mod_uses_its_prime():
    rows = _dict_rows([[2, 0], [0, 3]])
    assert [_rank_mod(rows, p) for p in (2, 3, 5)] == [1, 1, 2]
    assert _rank_mod(_dict_rows([[1, 2], [3, 6 + 7]]), 7) == 1
    assert _rank_mod([{}, {4: 0}], 5) == 0


def _strong_probable_prime(n, a):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_against_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(20000) if _is_prime(n) != trial_division(n)] == []


def test_is_prime_rejects_pseudoprimes():
    # each passes the strong test for the first 4, 5, 6 and 7 prime bases
    for n, bases in [
        (3215031751, (2, 3, 5, 7)),
        (2152302898747, (2, 3, 5, 7, 11)),
        (3474749660383, (2, 3, 5, 7, 11, 13)),
        (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    ]:
        assert all(_strong_probable_prime(n, a) for a in bases)
        assert not _is_prime(n)
    assert not _is_prime(561)  # a Carmichael number
    assert _is_prime(2**61 - 1)


def test_draw_prime_range_and_seed():
    primes = [_draw_prime(seed) for seed in range(20)]
    assert all(2**60 <= p < 2**61 and _is_prime(p) for p in primes)
    assert primes == [_draw_prime(seed) for seed in range(20)]
    assert len(set(primes)) == 20
