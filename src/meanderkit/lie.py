"""Exact linear-algebra ground truth over the seaweed matrix algebra.

A meander type determines a subalgebra of n x n matrices: the matrices that
are block upper triangular for the top composition and block lower
triangular for the bottom one.  Its support is the set of positions

    (i, j) with topblock(i) <= topblock(j) and bottomblock(i) >= bottomblock(j),

which has exactly (sum a_k^2 + sum b_k^2) / 2 elements and coincides with
the meander's admissible pairs.

Everything here is exact: integer fraction-free elimination for ranks and
Fraction arithmetic for solves.  These computations are deliberately
independent of the combinatorial routes in the other modules so the two
sides can be checked against each other:

* index via the kernel of the Kirillov form B_F(x, y) = F([x, y]) at random
  integer functionals (generic draws can only overestimate the nullity, so
  the minimum over trials is taken);
* the principal element, the unique trace-zero solution of
  F([Fhat, -]) = F for the canonical edge functional of a Frobenius meander;
* the spectrum of ad Fhat read off the diagonal of that solution;
* the classical Yang-Baxter equation residual of the r-matrix built from
  the inverse of the Kirillov matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (
    ConsistencyError,
    MeanderType,
    NotFrobeniusError,
    PreconditionError,
    _block_spans,
    _index,
    _partners,
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


def kirillov_matrix(pattern: SeaweedPattern, f: Functional) -> list[list[int]]:
    """The form F([e_ij, e_kl]) on the pattern basis; always antisymmetric."""
    pos = pattern.positions
    get = f.get
    rows = []
    for i, j in pos:
        row = []
        for k, l in pos:
            v = 0
            if j == k:
                v = get((i, l), 0)
            if l == i:
                v -= get((k, j), 0)
            row.append(v)
        rows.append(row)
    return rows


def _bareiss_rank(mat: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pivot = m[row][col]
        base = m[row]
        for r in range(row + 1, nrows):
            cur = m[r]
            factor = cur[col]
            # every row below is updated, factor zero or not, so that each
            # entry stays a minor of the original and // stays exact
            for c in range(col + 1, ncols):
                cur[c] = (cur[c] * pivot - factor * base[c]) // prev
            cur[col] = 0
        prev = pivot
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def index_oracle(m: MeanderType, trials: int = 5, seed: int = 0) -> int:
    """Minimum Kirillov-form nullity over random functionals, minus one.

    Coefficients are drawn uniformly from [-100, 100] on every pattern
    position.  The minus one removes the identity matrix, central in the
    gl(n) seaweed but absent from the sl(n) one the graph index refers to.
    A degenerate draw can only report a larger nullity, never a smaller
    one, so the minimum over trials is an upper bound that is exact for
    generic draws.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if m.n == 0:
        raise PreconditionError("the empty meander has no seaweed")
    rng = random.Random(seed)
    pattern = seaweed_positions(m)
    best: int | None = None
    for _ in range(trials):
        f = {p: rng.randint(-100, 100) for p in pattern.positions}
        mat = kirillov_matrix(pattern, f)
        nullity = pattern.dim - _bareiss_rank(mat)
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


def _gauss_jordan(
    a: list[list[int]], b: list[list[int]]
) -> tuple[list[list[Fraction]], list[list[Fraction]]] | None:
    """Solve A X = B exactly by Gauss-Jordan elimination over Fraction.

    Row r of b continues row r of a in the augmented matrix [A | B], with
    one column per right-hand side.  Returns (X, nullspace basis of A), with every free
    variable of X set to zero, or None when some system is inconsistent.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    zero = Fraction(0)  # shared: most entries are zero, and Fraction is immutable
    aug = [[Fraction(x) if x else zero for x in a[r] + b[r]] for r in range(nrows)]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if aug[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for rr in range(nrows):
            if rr != r and aug[rr][c] != 0:
                f = aug[rr][c]
                row_r = aug[r]
                aug[rr] = [x - f * y for x, y in zip(aug[rr], row_r)]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    for rr in range(r, nrows):
        if any(aug[rr][ncols:]):
            return None
    width = len(aug[0]) - ncols if nrows else 0
    solution = [[zero] * width for _ in range(ncols)]
    for c, rr in pivot_of_col.items():
        solution[c] = aug[rr][ncols:]
    free = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = Fraction(1)
        for c, rr in pivot_of_col.items():
            vec[c] = -aug[rr][fc]
        basis.append(vec)
    return solution, basis


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
    pattern = seaweed_positions(m)
    pos = pattern.positions
    col = {p: k for k, p in enumerate(pos)}
    f = canonical_functional(m)
    dim = len(pos)
    rows = [[0] * dim for _ in range(dim)]
    rhs = []
    # equation for test position (i, j):
    #   sum_{(k,l)} x_kl * ( [l==i][(k,j) in S] - [k==j][(i,l) in S] ) = [(i,j) in S]
    for r, (i, j) in enumerate(pos):
        row = rows[r]
        for (k, l), cidx in col.items():
            v = 0
            if l == i and (k, j) in f:
                v += 1
            if k == j and (i, l) in f:
                v -= 1
            if v:
                row[cidx] = v
        rhs.append([1 if (i, j) in f else 0])
    solved = _gauss_jordan(rows, rhs)
    if solved is None:
        raise PreconditionError("defining equation is inconsistent; not Frobenius")
    solution, basis = solved
    particular = [row[0] for row in solution]
    if len(basis) != 1:
        raise PreconditionError(
            f"solution space has dimension {len(basis)}, expected a line; not Frobenius"
        )
    # normalize to trace zero along the free (identity) direction
    diag_cols = [col[(i, i)] for i in range(1, m.n + 1)]
    tr_part = sum(particular[c] for c in diag_cols)
    tr_dir = sum(basis[0][c] for c in diag_cols)
    if tr_dir == 0:
        raise ConsistencyError("free direction has zero trace; cannot normalize")
    t = -tr_part / tr_dir
    values = [x + t * h for x, h in zip(particular, basis[0])]
    entries = {pos[k]: values[k] for k in range(dim) if values[k] != 0}
    # exact residual check of the defining equation
    for i, j in pos:
        lhs = Fraction(0)
        for (k, l), x in entries.items():
            if l == i and (k, j) in f:
                lhs += x
            if k == j and (i, l) in f:
                lhs -= x
        if lhs != (1 if (i, j) in f else 0):
            raise ConsistencyError(f"principal element residual nonzero at {(i, j)}")
    return PrincipalElement(m.n, entries)


def ad_spectrum(m: MeanderType) -> Spectrum:
    """Eigenvalues of ad Fhat on the seaweed: differences of diagonal entries.

    The multiplicity of 0 is reduced by one, removing the central identity
    direction of the gl(n) seaweed.  A non-diagonal principal element would
    invalidate the difference formula and raises ConsistencyError.
    """
    ix = _index(m.top, m.bottom) if m.n else None
    if ix != 0:
        raise NotFrobeniusError(f"not Frobenius (index {ix})", ix if ix is not None else -1)
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
    pattern = seaweed_positions(m)
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
    canonical functional on a trace-zero basis of the seaweed (a common
    integer rescaling of r does not change whether the residual is zero).
    """
    ix = _index(m.top, m.bottom) if m.n else 0
    if m.n and ix != 0:
        raise NotFrobeniusError(f"not Frobenius (index {ix})", ix)
    basis = _sl_basis(m)
    dim = len(basis)
    if dim == 0:
        return True
    f = canonical_functional(m)
    mat = [[_feval(f, _bracket(basis[a], basis[b])) for b in range(dim)] for a in range(dim)]
    identity = [[int(r == c) for c in range(dim)] for r in range(dim)]
    # A X = I has a solution exactly when the matrix is invertible
    solved = _gauss_jordan(mat, identity)
    if solved is None:
        raise PreconditionError("Kirillov matrix is degenerate on the sl part")
    inv = solved[0]
    scale = 1
    for row in inv:
        for x in row:
            scale = lcm(scale, x.denominator)
    rmat = [[int(x * scale) for x in row] for row in inv]

    brackets = [[_bracket(basis[a], basis[c]) for c in range(dim)] for a in range(dim)]
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
