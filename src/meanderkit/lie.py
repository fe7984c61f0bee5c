"""Exact linear-algebra ground truth over the seaweed matrix algebra.

A meander type determines a subalgebra of n x n matrices: the matrices that
are block upper triangular for the top composition and block lower
triangular for the bottom one.  Its support is the set of positions

    (i, j) with topblock(i) <= topblock(j) and bottomblock(i) >= bottomblock(j),

which has exactly (sum a_k^2 + sum b_k^2) / 2 elements and coincides with
the meander's admissible pairs.

Everything here is exact, and two routines do all the elimination.  These
computations are deliberately independent of the combinatorial routes in
the other modules so the two sides can be checked against each other:

* index via the kernel of the Kirillov form B_F(x, y) = F([x, y]) at random
  integer functionals (generic draws can only overestimate the nullity, so
  the minimum over trials is taken);
* the principal element, the unique trace-zero solution of
  F([Fhat, -]) = F for the canonical edge functional of a Frobenius meander;
* the spectrum of ad Fhat read off the diagonal of that solution;
* the classical Yang-Baxter equation residual of the r-matrix built from
  the inverse of the Kirillov matrix.

The index needs only a rank, and _rank_mod takes it modulo a prime p drawn
from [2^60, 2^61), by sparse elimination: a row of the Kirillov matrix has
at most 2n nonzero entries, word-size residues replace growing minors, and
no work is spent on zero entries.  Rank mod p never exceeds the rank over
the rationals, since a minor that is nonzero mod p is nonzero, so the error
is one-sided, the same overestimate of the nullity that the minimum over
trials already allows for.  It is rare: for a fixed functional, take a
nonzero maximal minor.  Every row has at most 2n entries of absolute value
at most 200, so by Hadamard's bound the minor has at most
r log2(200 sqrt(2n)) bits, about 3 000 at dimension 250, and so at most
about (bit length) / 60, some 50, prime factors in [2^60, 2^61).  That
range holds about 2.7e16 primes, and a prime drawn uniformly from it
divides the minor with probability below 2e-15 per trial.

The solves use fraction-free Bareiss elimination of the augmented matrix
[A | B] over the integers, which keeps every entry an integer minor of the
input, followed by an integer back-substitution: the last pivot d is, up to
sign, the minor of A on the pivot rows and columns, so by Cramer's rule
d x is integral and no fraction appears until the caller divides by d.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ConsistencyError,
    MeanderType,
    PreconditionError,
    _block_spans,
    _partners,
    _require_frobenius,
)
from .spectrum import Spectrum

__all__ = [
    "SeaweedPattern",
    "Functional",
    "PrincipalElement",
    "seaweed_positions",
    "kirillov_matrix",
    "index_oracle",
    "canonical_functional",
    "principal_element",
    "ad_spectrum",
    "cybe_residual",
]

Position = tuple[int, int]
# coefficients of a functional F = sum F_ij e_ij^*, zero off the support
Functional = dict[Position, int]

# Largest seaweed dimension (sum a_k^2 + sum b_k^2) / 2 that index_oracle,
# principal_element, ad_spectrum and cybe_residual accept; above it they
# raise PreconditionError before any matrix is allocated, and before any
# walk over the vertices.  The Bareiss solves set the bound.  At it
# (Python 3.11, shared 2-core host, peak RSS of the whole process),
# principal_element of 2|17/6|13 (dimension 249) takes 0.4 s at 17 MB and
# cybe_residual of it 4.0 s at 51 MB; index_oracle of 19/3|7|9 (dimension
# 250) takes 0.21 s per trial at 18 MB.
ORACLE_MAX_DIM = 250

# Most random functionals index_oracle draws; above it, it raises
# PreconditionError before the first draw.  Trials run one after another
# and each costs one rank modulo the call's prime, so at both bounds one
# call takes about 50 x 0.21 s, some 11 s, at the 18 MB of a single trial;
# at the default of 5 trials it takes about 1.1 s.
ORACLE_MAX_TRIALS = 50


@dataclass(frozen=True)
class SeaweedPattern:
    """Matrix positions spanned by the seaweed subalgebra of a meander."""

    n: int
    positions: tuple[Position, ...]

    @property
    def dim(self) -> int:
        return len(self.positions)

    @property
    def sl_dim(self) -> int:
        """Dimension of the trace-zero part."""
        return len(self.positions) - 1


def seaweed_positions(m: MeanderType) -> SeaweedPattern:
    """All positions preserved by both flags of the meander type.

    Row i holds the columns j from the first vertex of i's top block to
    the last vertex of i's bottom block, in ascending order.
    """
    n = m.n
    first = [0] * (n + 1)
    last = [0] * (n + 1)
    for p, q in _block_spans(m.top):
        first[p : q + 1] = [p] * (q - p + 1)
    for p, q in _block_spans(m.bottom):
        last[p : q + 1] = [q] * (q - p + 1)
    positions = tuple(
        (i, j) for i in range(1, n + 1) for j in range(first[i], last[i] + 1)
    )
    return SeaweedPattern(n, positions)


def _check_budget(m: MeanderType) -> None:
    """Raise PreconditionError unless the seaweed dimension, which needs
    only the block sizes, is within ORACLE_MAX_DIM."""
    dim = (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2
    if dim > ORACLE_MAX_DIM:
        raise PreconditionError(
            f"seaweed dimension {dim} exceeds the oracle budget {ORACLE_MAX_DIM}"
        )


def _oracle_pattern(m: MeanderType) -> SeaweedPattern:
    """seaweed_positions, once the dimension is within ORACLE_MAX_DIM."""
    _check_budget(m)
    return seaweed_positions(m)


def _kirillov_rows(pattern: SeaweedPattern, f: Functional) -> list[dict[int, int]]:
    """The rows of kirillov_matrix as {column: entry}, nonzero entries only.

    F([e_ij, e_kl]) = [j == k] F_il - [l == i] F_kj, so row (i, j) is
    nonzero only in the columns (j, l) of pattern row j and (k, i) of
    pattern column i: at most 2n entries, found without a scan of the row.
    """
    in_row: dict[int, list[tuple[int, int]]] = {}
    in_col: dict[int, list[tuple[int, int]]] = {}
    for c, (k, l) in enumerate(pattern.positions):
        in_row.setdefault(k, []).append((l, c))
        in_col.setdefault(l, []).append((k, c))
    get = f.get
    rows = []
    for i, j in pattern.positions:
        row = {c: v for l, c in in_row[j] if (v := get((i, l), 0))}
        for k, c in in_col[i]:
            v = get((k, j), 0)
            if v:
                # column (j, i) gets both terms, which cancel when i == j
                v = row.pop(c, 0) - v
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def kirillov_matrix(pattern: SeaweedPattern, f: Functional) -> list[list[int]]:
    """The form F([e_ij, e_kl]) on the pattern basis; always antisymmetric."""
    rows = []
    for entries in _kirillov_rows(pattern, f):
        row = [0] * pattern.dim
        for c, v in entries.items():
            row[c] = v
        rows.append(row)
    return rows


def _bareiss(
    a: list[list[int]], b: list[list[int]] | None = None
) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination of the augmented matrix [A | B].

    Row r of b continues row r of a.  Pivots are taken in the columns of A
    only.  Returns the eliminated rows and the pivot columns: the first
    len(pivots) rows are the echelon rows, and the rows below are zero in A
    and hold, in B, the minors that are zero exactly when A X = B is
    consistent.  The inputs are not modified.
    """
    rows = [ra + rb for ra, rb in zip(a, b)] if b else [ra[:] for ra in a]
    ncols = len(a[0]) if a else 0
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(rows):
            break
        piv = next((r for r in range(row, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        base = rows[row]
        pivot = base[col]
        for cur in rows[row + 1 :]:
            factor = cur[col]
            # every row below is updated, factor zero or not, so that each
            # entry stays a minor of the original and // stays exact
            for c in range(col + 1, width):
                cur[c] = (cur[c] * pivot - factor * base[c]) // prev
            cur[col] = 0
        prev = pivot
        pivots.append(col)
    return rows, pivots


def _solve(
    a: list[list[int]], b: list[list[int]]
) -> tuple[int, list[list[int]], list[list[int]]] | None:
    """Solve A X = B exactly in integers, by back-substitution after _bareiss.

    Returns (d, Y, N), or None when some column of B is out of reach.  d is
    the last pivot (1 when A is zero), Y has one row per unknown and one
    column per right-hand side, with A (Y / d) = B and every free variable
    zero, and N is a nullspace basis of A with d at each vector's own free
    column.  d is, up to sign, the minor of A on the pivot rows and
    columns, so by Cramer's rule d times any of these solutions is
    integral and every division below is exact.
    """
    rows, pivots = _bareiss(a, b)
    ncols = len(a[0]) if a else 0
    rank = len(pivots)
    if any(any(row[ncols:]) for row in rows[rank:]):
        return None
    d = rows[rank - 1][pivots[-1]] if pivots else 1

    def back(col: int, sign: int) -> list[int]:
        # d x, where U x = sign * (column col of U) on the echelon rows U
        # and every free variable of x is zero
        x = [0] * ncols
        for k in range(rank - 1, -1, -1):
            row = rows[k]
            s = sign * d * row[col] - sum(row[p] * x[p] for p in pivots[k + 1 :])
            x[pivots[k]] = s // row[pivots[k]]
        return x

    width = len(rows[0]) - ncols if rows else 0
    solutions = [back(ncols + j, 1) for j in range(width)]
    y = [[x[c] for x in solutions] for c in range(ncols)]
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = back(free, -1)
        vec[free] = d
        basis.append(vec)
    return d, y, basis


# Primes below 200: a gcd with their product screens prime candidates
# before Miller-Rabin.
_SMALL_PRIMES = tuple(
    q for q in range(2, 200) if all(q % d for d in range(2, math.isqrt(q) + 1))
)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
# Miller-Rabin with these bases is exact for every n < 2^64 (Sinclair's set).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < 2^64: small-prime screen, then
    strong probable-prime tests to the bases _MR_BASES."""
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        # x == 0 only when n divides a; every composite factor of a base
        # has a prime factor below 200, so such an n is prime
        if x <= 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _draw_prime(seed: int) -> int:
    """A prime from [2^60, 2^61), uniform over the primes of that range,
    from a generator of its own derived from seed."""
    rng = random.Random(f"index_oracle prime {seed}")
    while True:
        p = rng.getrandbits(60) | (1 << 60) | 1
        if _is_prime(p):
            return p


def _rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank modulo the prime p of the integer matrix with rows {column: entry}.

    Sparse Gaussian elimination over F_p with Markowitz pivoting: the
    pivot is taken in the shortest remaining row, in its column with the
    fewest remaining rows, and one modular inverse per pivot clears that
    column from exactly the rows that have an entry there.  Rows that
    reach zero are dropped; the rank is the number of pivots.
    """
    sparse: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> rows with an entry there
    for r, row in enumerate(rows):
        entries = {c: x for c, v in row.items() if (x := v % p)}
        if entries:
            sparse[r] = entries
            for c in entries:
                where.setdefault(c, set()).add(r)
    rank = 0
    while sparse:
        # (length, row) and (rows in column, column) pairs keep the
        # comparisons out of Python-level key functions
        _, r = min(zip(map(len, sparse.values()), sparse))
        base = sparse.pop(r)
        for c in base:
            where[c].discard(r)
        _, col = min(zip(map(len, map(where.__getitem__, base)), base))
        scale = p - pow(base.pop(col), -1, p)
        rank += 1
        for o in where.pop(col):
            row = sparse[o]
            factor = row.pop(col) * scale % p
            for c, v in base.items():
                if c in row:
                    x = (row[c] + factor * v) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        where[c].discard(o)
                else:
                    row[c] = factor * v % p
                    where[c].add(o)
            if not row:
                del sparse[o]
    return rank


def index_oracle(m: MeanderType, trials: int = 5, seed: int = 0) -> int:
    """Minimum Kirillov-form nullity over random functionals, minus one.

    Coefficients are drawn uniformly from [-100, 100] on every pattern
    position.  The minus one removes the identity matrix, central in the
    gl(n) seaweed but absent from the sl(n) one the graph index refers to.
    A degenerate draw can only report a larger nullity, never a smaller
    one, so the minimum over trials is an upper bound that is exact for
    generic draws.  Each rank is taken modulo one prime drawn per call
    (see the module docstring), which can only raise the nullity too.
    trials runs from 1 to ORACLE_MAX_TRIALS.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if trials > ORACLE_MAX_TRIALS:
        raise PreconditionError(
            f"{trials} trials exceed the oracle budget {ORACLE_MAX_TRIALS}"
        )
    if m.n == 0:
        raise PreconditionError("the empty meander has no seaweed")
    rng = random.Random(seed)
    pattern = _oracle_pattern(m)
    p = _draw_prime(seed)
    best: int | None = None
    for _ in range(trials):
        f = {q: rng.randint(-100, 100) for q in pattern.positions}
        nullity = pattern.dim - _rank_mod(_kirillov_rows(pattern, f), p)
        if best is None or nullity < best:
            best = nullity
    assert best is not None
    return best - 1


def canonical_functional(m: MeanderType) -> Functional:
    """The edge functional: coefficient 1 at each oriented meander arc.

    Top arcs are taken right-to-left and bottom arcs left-to-right, which
    always lands inside the seaweed pattern; this is checked and a failure
    is an internal inconsistency.
    """
    n = m.n
    tp, bp = _partners(m.top, m.bottom, n)
    support: Functional = {}
    for v in range(1, n + 1):
        if tp[v] and tp[v] < v:
            support[(v, tp[v])] = 1
        if bp[v] and bp[v] > v:
            support[(v, bp[v])] = 1
    pattern = set(seaweed_positions(m).positions)
    for p in support:
        if p not in pattern:
            raise ConsistencyError(f"canonical functional leaves the pattern at {p}")
    return support


@dataclass(frozen=True)
class PrincipalElement:
    """Trace-zero solution of F([Fhat, -]) = F, supported on the pattern."""

    n: int
    entries: dict[Position, Fraction]

    @property
    def is_diagonal(self) -> bool:
        return all(i == j for i, j in self.entries)

    def diagonal(self) -> list[Fraction]:
        return [self.entries.get((i, i), Fraction(0)) for i in range(1, self.n + 1)]


def principal_element(m: MeanderType) -> PrincipalElement:
    """Solve F([Fhat, e_ij]) = F(e_ij) over all pattern positions, exactly.

    F is the canonical edge functional.  For a Frobenius meander the
    solution set is a line (the identity direction is free); the trace-zero
    representative is returned, and the defining equation is re-verified
    entry by entry.  A solution space of any other shape means the meander
    is not Frobenius for this functional and is an error.
    """
    if m.n == 0:
        raise PreconditionError("the empty meander has no principal element")
    pattern = _oracle_pattern(m)
    pos = pattern.positions
    f = canonical_functional(m)
    # F([Fhat, e_ij]) = -F([e_ij, Fhat]), so the system is K x = -F
    solved = _solve(kirillov_matrix(pattern, f), [[-f.get(p, 0)] for p in pos])
    if solved is None:
        raise PreconditionError("defining equation is inconsistent; not Frobenius")
    d, y, basis = solved
    if len(basis) != 1:
        raise PreconditionError(
            f"solution space has dimension {len(basis)}, expected a line; not Frobenius"
        )
    # normalize to trace zero along the free (identity) direction:
    # x = (y - (tr y / tr h) h) / d
    h = basis[0]
    diag_cols = [k for k, (i, j) in enumerate(pos) if i == j]
    tr_y = sum(y[c][0] for c in diag_cols)
    tr_h = sum(h[c] for c in diag_cols)
    if tr_h == 0:
        raise ConsistencyError("free direction has zero trace; cannot normalize")
    entries: dict[Position, Fraction] = {}
    for k, p in enumerate(pos):
        num = y[k][0] * tr_h - tr_y * h[k]
        if num:
            entries[p] = Fraction(num, d * tr_h)
    # exact residual check of the defining equation, through the bracket
    for i, j in pos:
        if _feval(f, _bracket(entries, {(i, j): 1})) != f.get((i, j), 0):
            raise ConsistencyError(f"principal element residual nonzero at {(i, j)}")
    return PrincipalElement(m.n, entries)


def ad_spectrum(m: MeanderType) -> Spectrum:
    """Eigenvalues of ad Fhat on the seaweed: differences of diagonal entries.

    The multiplicity of 0 is reduced by one, removing the central identity
    direction of the gl(n) seaweed.  A non-diagonal principal element would
    invalidate the difference formula and raises ConsistencyError.  A
    meander of nonzero index, the empty one included, raises
    NotFrobeniusError, once the dimension is within the budget.
    """
    _check_budget(m)
    _require_frobenius(m)
    fhat = principal_element(m)
    if not fhat.is_diagonal:
        raise ConsistencyError("principal element is not diagonal")
    diag = fhat.diagonal()
    dims: Spectrum = {}
    for i, j in seaweed_positions(m).positions:
        e = diag[i - 1] - diag[j - 1]
        if e.denominator != 1:
            raise ConsistencyError(f"non-integer eigenvalue {e} at {(i, j)}")
        dims[int(e)] = dims.get(int(e), 0) + 1
    dims[0] -= 1
    if dims[0] == 0:
        del dims[0]
    return dims


# ---------------------------------------------------------------------------
# Classical Yang-Baxter equation
# ---------------------------------------------------------------------------

Matrix = dict[Position, int]


def _sl_basis(m: MeanderType) -> list[Matrix]:
    """Basis of the trace-zero seaweed: off-diagonal units, diagonal differences."""
    pattern = _oracle_pattern(m)
    basis: list[Matrix] = []
    for i, j in pattern.positions:
        if i != j:
            basis.append({(i, j): 1})
    for k in range(1, m.n):
        basis.append({(k, k): 1, (k + 1, k + 1): -1})
    return basis


def _bracket(x: Matrix, y: Matrix) -> Matrix:
    out: Matrix = {}
    for (i, j), a in x.items():
        for (k, l), b in y.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + a * b
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - a * b
    return {p: v for p, v in out.items() if v}


def _feval(f: Functional, x: Matrix) -> int:
    return sum(v * f.get(p, 0) for p, v in x.items())


def cybe_residual(m: MeanderType) -> bool:
    """True iff [r12, r13] + [r12, r23] + [r13, r23] vanishes identically.

    r is built from the exact inverse of the Kirillov matrix of the
    canonical functional on a trace-zero basis of the seaweed, scaled by
    the last Bareiss pivot to an integer matrix (the residual is
    homogeneous in r, so the scaling does not change whether it is zero).
    A meander of nonzero index, the empty one included, raises
    NotFrobeniusError, once the dimension is within the budget.
    """
    _check_budget(m)
    _require_frobenius(m)
    basis = _sl_basis(m)
    dim = len(basis)
    if dim == 0:
        return True
    f = canonical_functional(m)
    brackets = [[_bracket(basis[a], basis[c]) for c in range(dim)] for a in range(dim)]
    mat = [[_feval(f, x) for x in row] for row in brackets]
    identity = [[int(r == c) for c in range(dim)] for r in range(dim)]
    # A X = I has a solution exactly when the matrix is invertible
    solved = _solve(mat, identity)
    if solved is None:
        raise PreconditionError("Kirillov matrix is degenerate on the sl part")
    rmat = solved[1]  # d times the inverse

    acc: dict[tuple[Position, Position, Position], int] = {}

    def add(t1: Matrix, t2: Matrix, t3: Matrix, coef: int) -> None:
        for p1, v1 in t1.items():
            cv1 = coef * v1
            for p2, v2 in t2.items():
                cv12 = cv1 * v2
                for p3, v3 in t3.items():
                    key = (p1, p2, p3)
                    acc[key] = acc.get(key, 0) + cv12 * v3

    nonzero = [
        (a, b) for a in range(dim) for b in range(dim) if rmat[a][b]
    ]
    for a, b in nonzero:
        rab = rmat[a][b]
        xb = basis[b]
        for c, d in nonzero:
            coef = rab * rmat[c][d]
            xd = basis[d]
            t = brackets[a][c]
            if t:
                add(t, xb, xd, coef)
            t = brackets[b][c]
            if t:
                add(basis[a], t, xd, coef)
            t = brackets[b][d]
            if t:
                add(basis[a], basis[c], t, coef)
    return all(v == 0 for v in acc.values())
