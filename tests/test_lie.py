import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanderkit import (
    ConsistencyError,
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

from meanderkit import lie
from meanderkit.lie import (
    _back_substitute,
    _bracket,
    _draw_prime,
    _eliminate,
    _feval,
    _is_prime,
    _kirillov_rows,
    _reconstruct,
)
from meanderkit.winding import _meander_tree

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


def test_index_oracle_refuses_a_bool_trial_count():
    # True == 1, but index_oracle(m, trials=True) would run one trial
    with pytest.raises(PreconditionError, match="trials must be >= 1"):
        index_oracle(parse_type("1|2/3"), trials=True)


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
    tree = [MeanderType(t, b) for t, b, *_ in _meander_tree(14, 0, 28)]
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
    with pytest.raises(NotFrobeniusError) as exc:
        principal_element(parse_type("3/3"))
    assert exc.value.index == 2
    with pytest.raises(NotFrobeniusError) as exc:
        principal_element(MeanderType((), ()))
    assert exc.value.index == -1


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


def _fraction_reduce(a, b):
    """Gauss-Jordan elimination of [A | B] over Fraction: the slow route.

    Pivots are taken in the columns of A only.  Returns (rank, X) with
    A X = B and every free unknown zero, or X None when A X = B has no
    solution.
    """
    ncols = len(a[0]) if a else 0
    rows = [[Fraction(x) for x in ra + rb] for ra, rb in zip(a, b)]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][c] for x in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
        pivots.append(c)
    rank = len(pivots)
    if any(any(row[ncols:]) for row in rows[rank:]):
        return rank, None
    x = [[Fraction(0)] * len(b[0] if b else []) for _ in range(ncols)]
    for k, c in enumerate(pivots):
        x[c] = rows[k][ncols:]
    return rank, x


def _fraction_rank(mat):
    return _fraction_reduce(mat, [[] for _ in mat])[0]


def _solve_mod(a, b, p):
    """_eliminate and _back_substitute on [A | B] modulo p: (rank, X as a
    dense matrix of residues, pivot columns)."""
    ncols = len(a[0])
    rows = [{c: v for c, v in enumerate(ra + rb) if v} for ra, rb in zip(a, b)]
    pivots = _eliminate(rows, p, ncols)
    x = _back_substitute(pivots, p, ncols)
    width = len(b[0]) if b else 0
    y = [[x.get(c, {}).get(j, 0) for j in range(width)] for c in range(ncols)]
    return len(pivots), y, [col for col, _, _ in pivots]


def _holds(a, y, b, p):
    """A Y = B modulo p."""
    return [[v % p for v in row] for row in _matmul(a, y)] == [[v % p for v in row] for row in b]


def _kernel_mod(a, p):
    """A kernel basis of A modulo p: A X = -A, and X e_f + e_f for each
    free column f, which is 1 at f and 0 at the other free columns."""
    ncols = len(a[0])
    _, x, pivot_cols = _solve_mod(a, [[-v for v in row] for row in a], p)
    return [
        [(x[c][f] + (c == f)) % p for c in range(ncols)]
        for f in range(ncols)
        if f not in pivot_cols
    ]


def _residues(mat, p):
    return [[v.numerator * pow(v.denominator, -1, p) % p for v in row] for row in mat]


def _lift(mat, p):
    return [[Fraction(*_reconstruct(v, p)) for v in row] for row in mat]


def _sl_basis(m):
    """Basis of the trace-zero seaweed: off-diagonal units, diagonal differences."""
    basis = [{(i, j): 1} for i, j in seaweed_positions(m).positions if i != j]
    return basis + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(1, m.n)]


def _cybe_kirillov_matrix(m):
    basis = _sl_basis(m)
    f = canonical_functional(m)
    return [[_feval(f, _bracket(x, y)) for y in basis] for x in basis]


def test_solve_inverts_cybe_kirillov_matrix():
    p = _draw_prime(0)
    for text in ("1|2/3", "1|4/2|3", "6|1/2|3|2", "2|3/5"):
        a = _cybe_kirillov_matrix(parse_type(text))
        dim = len(a)
        identity = [[int(r == c) for c in range(dim)] for r in range(dim)]
        rank, y, _ = _solve_mod(a, identity, p)
        assert rank == dim
        inverse = _lift(y, p)
        assert inverse == _fraction_reduce(a, identity)[1]
        assert _matmul(a, inverse) == identity


def _cybe_exact(m, mutation=None):
    """The exact route: r = K^-1 on _sl_basis(m) from _fraction_reduce,
    scaled by the lcm of its denominators, and [r12, r13] + [r12, r23] +
    [r13, r23] summed into a dict keyed by position triples.  A mutation
    (a, b, delta) adds delta to K[a][b] and takes it from K[b][a].  None
    when K is singular."""
    basis = _sl_basis(m)
    dim = len(basis)
    f = canonical_functional(m)
    brackets = [[_bracket(x, y) for y in basis] for x in basis]
    k = [[_feval(f, t) for t in row] for row in brackets]
    if mutation:
        a, b, delta = mutation
        k[a][b] += delta
        k[b][a] -= delta
    identity = [[int(a == b) for b in range(dim)] for a in range(dim)]
    rank, inverse = _fraction_reduce(k, identity)
    if rank < dim:
        return None
    den = math.lcm(*(x.denominator for row in inverse for x in row))
    r = {(a, b): int(x * den) for a, row in enumerate(inverse) for b, x in enumerate(row) if x}
    acc = {}

    def add(t1, t2, t3, coef):
        for p1, v1 in t1.items():
            for p2, v2 in t2.items():
                for p3, v3 in t3.items():
                    key = (p1, p2, p3)
                    acc[key] = acc.get(key, 0) + coef * v1 * v2 * v3

    for (a, b), rab in r.items():
        for (c, d), rcd in r.items():
            coef = rab * rcd
            add(brackets[a][c], basis[b], basis[d], coef)
            add(basis[a], brackets[b][c], basis[d], coef)
            add(basis[a], basis[c], brackets[b][d], coef)
    return not any(acc.values())


def test_cybe_residual_matches_exact_route():
    frobenius = [
        m for n in range(1, 7) for m in enumerate_meanders(n) if index_naive(m) == 0
    ]
    assert len(frobenius) == 125
    for m in frobenius:
        assert cybe_residual(m) is _cybe_exact(m) is True


def test_cybe_residual_on_skew_mutants(monkeypatch):
    # one entry of the Kirillov form and its mirror changed, both at
    # off-diagonal positions, which are units of both bases, so that the
    # identity stays in the kernel of the gl form
    rng = random.Random(12)
    frobenius = [
        m for n in range(3, 6) for m in enumerate_meanders(n) if index_naive(m) == 0
    ]
    real = lie._kirillov_rows
    verdicts = []
    for _ in range(60):
        m = rng.choice(frobenius)
        positions = seaweed_positions(m).positions
        offdiagonal = [c for c, (i, j) in enumerate(positions) if i != j]
        a, b = rng.sample(range(len(offdiagonal)), 2)
        delta = rng.choice((-2, -1, 1, 2))
        ga, gb = offdiagonal[a], offdiagonal[b]

        def mutated(pattern, f):
            rows = real(pattern, f)
            for r, c, d in ((ga, gb, delta), (gb, ga, -delta)):
                rows[r][c] = rows[r].get(c, 0) + d
                if not rows[r][c]:
                    del rows[r][c]
            return rows

        monkeypatch.setattr(lie, "_kirillov_rows", mutated)
        expected = _cybe_exact(m, (a, b, delta))
        if expected is None:
            with pytest.raises(ConsistencyError):
                cybe_residual(m)
        else:
            assert cybe_residual(m) is expected
        verdicts.append(expected)
    # 57 compared, 53 of them false; 3 mutants are singular
    assert len(verdicts) - verdicts.count(None) >= 50
    assert True in verdicts and False in verdicts


def test_solve_inconsistent_and_singular():
    p = _draw_prime(0)
    # x + y = 1 and 2x + 2y = 3 have no common solution
    rank, y, _ = _solve_mod([[1, 1], [2, 2]], [[1], [3]], p)
    assert rank == 1 and not _holds([[1, 1], [2, 2]], y, [[1], [3]], p)
    # rank one in three unknowns: a particular solution and a plane of kernel
    a = [[1, 2, 3], [2, 4, 6]]
    rank, y, _ = _solve_mod(a, [[6], [12]], p)
    assert rank == 1
    assert _matmul(a, _lift(y, p)) == [[6], [12]]
    nullspace = _kernel_mod(a, p)
    assert len(nullspace) == 2
    for vec in _lift(nullspace, p):
        assert _matmul(a, [[v] for v in vec]) == [[0], [0]]


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
    # _eliminate plus _back_substitute against _fraction_reduce
    a, b, c = system
    p = _draw_prime(5)
    rank, x = _fraction_reduce(a, b)
    got_rank, y, _ = _solve_mod(a, b, p)
    assert got_rank == rank and _holds(a, y, b, p)
    if rank == len(a[0]):
        assert y == _residues(x, p)
    nullspace = _kernel_mod(a, p)
    assert len(nullspace) == len(a[0]) - rank
    assert _fraction_rank(nullspace) == len(nullspace)
    for vec in nullspace:
        assert all(v % p == 0 for (v,) in _matmul(a, [[v] for v in vec]))
    assert _holds(a, _solve_mod(a, c, p)[1], c, p) == (_fraction_reduce(a, c)[1] is not None)


def _dict_rows(mat):
    return [dict(enumerate(row)) for row in mat]


def _rank_mod(rows, p):
    return len(_eliminate(rows, p))


def _bareiss(mat):
    """(rank, last pivot) by fraction-free Bareiss elimination over the
    integers: every entry stays a minor of the input, so each division is
    exact, and the last pivot of a square matrix of full rank is its
    determinant up to sign.  A slow route several times faster than
    _fraction_rank on Kirillov matrices."""
    rows = [row[:] for row in mat]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        base = rows[rank]
        for cur in rows[rank + 1 :]:
            factor = cur[c]
            for k in range(c + 1, len(base)):
                cur[k] = (cur[k] * base[c] - factor * base[k]) // prev
            cur[c] = 0
        prev = base[c]
        rank += 1
    return rank, prev


def test_rank_mod_matches_bareiss_on_kirillov_matrices():
    rng = random.Random(41)
    p = _draw_prime(41)
    for n in range(1, 7):
        for m in enumerate_meanders(n):
            pattern = seaweed_positions(m)
            for _ in range(3):
                f = {q: rng.randint(-100, 100) for q in pattern.positions}
                rank, _ = _bareiss(kirillov_matrix(pattern, f))
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


def test_eliminate_pivots_left_of_ncols():
    # the second row is 0 = 1 once the first is taken from it
    pivots = _eliminate([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 7}], 11, 2)
    assert pivots == [(0, 10, {1: 2, 2: 3})]
    assert _eliminate([{2: 5}], 11, 2) == []
    assert _eliminate([{2: 5}], 11) == [(2, 11 - pow(5, -1, 11), {})]


def test_reconstruct_hand_cases():
    p = 2**61 - 1
    bound = math.isqrt(p // 2)
    assert bound == 2**30 - 1
    for a, b in [(0, 1), (1, 1), (-1, 1), (-3, 7), (50, 19), (-50, 19), (bound, 1),
                 (-bound, 1), (1, bound), (-bound, bound - 1)]:
        assert _reconstruct(a * pow(b, -1, p) % p, p) == (a, b)
    # just out of range, on either side of the bar
    assert _reconstruct(bound + 1, p) is None
    assert _reconstruct(-(bound + 1) % p, p) is None
    assert _reconstruct(pow(bound + 1, -1, p), p) is None


def test_solves_retry_after_a_bad_prime(monkeypatch):
    # a prime that divides det K leaves K singular modulo it; at 1|1/2 the
    # Yang-Baxter solves modulo 2 still pass their check, so only the rank
    # refuses that prime
    real = lie._draw_prime
    for text in ("1|4/2|3", "1|1/2"):
        monkeypatch.setattr(lie, "_draw_prime", real)
        m = parse_type(text)
        expected = principal_element(m)
        det = abs(_bareiss(_cybe_kirillov_matrix(m))[1])
        bad = next(q for q in range(2, det + 1) if det % q == 0)
        assert _is_prime(bad)
        drawn = []

        def draw(k):
            drawn.append(k)
            return bad if k == 0 else real(k)

        monkeypatch.setattr(lie, "_draw_prime", draw)
        assert principal_element(m) == expected
        assert drawn == [0, 1]
        drawn.clear()
        assert cybe_residual(m)
        assert drawn == [0, 1]
        # three bad primes in a row are an error, not a result
        monkeypatch.setattr(lie, "_draw_prime", lambda k: bad)
        with pytest.raises(ConsistencyError):
            principal_element(m)
        with pytest.raises(ConsistencyError):
            cybe_residual(m)


def test_corrupted_solutions_fail_their_certificates(monkeypatch):
    # one wrong entry per prime: every prime is refused
    real = lie._back_substitute
    corrupted = set()

    def corrupt(pivots, p, ncols):
        x = real(pivots, p, ncols)
        if p not in corrupted:
            corrupted.add(p)
            col = x[min(x)]
            j = min(col)
            col[j] = (col[j] + 1) % p
        return x

    monkeypatch.setattr(lie, "_back_substitute", corrupt)
    m = parse_type("1|4/2|3")
    for solve in (cybe_residual, principal_element):
        corrupted.clear()
        with pytest.raises(ConsistencyError):
            solve(m)
        assert corrupted == {_draw_prime(k) for k in range(3)}


def test_principal_element_off_trace_zero_is_refused(monkeypatch):
    # adding the identity keeps the defining equation, and K y = u of the
    # Yang-Baxter solves, so only the trace check refuses the shifted
    # solutions
    m = parse_type("1|4/2|3")
    diagonal = [c for c, (i, j) in enumerate(seaweed_positions(m).positions) if i == j]
    real = lie._back_substitute

    def shifted(pivots, p, ncols):
        x = real(pivots, p, ncols)
        columns = {j for col in x.values() for j in col}
        for c in diagonal:
            x[c] = {j: (x.get(c, {}).get(j, 0) + 1) % p for j in columns}
        return x

    monkeypatch.setattr(lie, "_back_substitute", shifted)
    for solve in (principal_element, cybe_residual):
        with pytest.raises(ConsistencyError):
            solve(m)


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
