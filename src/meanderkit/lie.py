"""Exact linear-algebra ground truth over the seaweed matrix algebra.

A meander type determines a subalgebra of n x n matrices: the matrices that
are block upper triangular for the top composition and block lower
triangular for the bottom one.  Its support is the set of positions

    (i, j) with topblock(i) <= topblock(j) and bottomblock(i) >= bottomblock(j),

which has exactly (sum a_k^2 + sum b_k^2) / 2 elements and coincides with
the meander's admissible pairs.

Everything here is exact, and one routine, _eliminate, does all the
elimination.  These computations are deliberately independent of the
combinatorial routes in the other modules so the two sides can be checked
against each other:

* index via the kernel of the Kirillov form B_F(x, y) = F([x, y]) at random
  integer functionals (generic draws can only overestimate the nullity, so
  the minimum over trials is taken);
* the principal element, the unique trace-zero solution of
  F([Fhat, -]) = F for the canonical edge functional of a Frobenius meander;
* the spectrum of ad Fhat read off the diagonal of that solution;
* the classical Yang-Baxter equation for r, the inverse of the Kirillov
  form of that functional on the trace-zero seaweed.

_eliminate is sparse elimination modulo a prime p from [2^60, 2^61): a
row of the Kirillov matrix has at most 2n nonzero entries, and word-size
residues replace growing minors.  The index needs only a rank, modulo one
prime drawn per call.  Rank mod p never exceeds the rank over the
rationals, since a minor that is nonzero mod p is nonzero, so the error is
one-sided, as for an unlucky functional, which the minimum over trials
allows for.  It is rare: for a fixed functional, a nonzero maximal minor
has rows of at most 2n entries of size at most 200, so by Hadamard's bound
at most r log2(200 sqrt(2n)) bits, about 3 000 at dimension 250, and at
most some 50 prime factors in [2^60, 2^61).  That range holds about 2.7e16
primes, so a drawn prime divides it with probability below 2e-15 per trial.

The two solves append a trace row and one right-hand-side column per
functional to the Kirillov rows, solve mod p, and try the fixed primes
_draw_prime(0), (1), (2) in turn; ConsistencyError is raised only when all
three are refused.  The principal element is lifted to the fractions a/b
with |a|, b <= sqrt(p / 2), about 7.6e8, congruent to its residues
(rational reconstruction, Wang 1981; at dimension 249, |a| <= 50 and
b <= 19), and certified exactly through _bracket and its trace.

The Yang-Baxter residual of the skew r is trilinear: at covectors u, v, w
it is u([rv, rw]) + v([rw, ru]) + w([ru, rv]), zero for all of them
exactly when r solves the equation (Gerstenhaber and Giaquinto, 1997).  It
is taken mod p at three covectors drawn mod p, each ru one solve of
K y = u, trace y = 0, and a prime is refused when the rank falls short (K
is singular mod p) or a solution fails K y = u, trace y = 0 mod p.  Then
false is always right, and a nonzero residual reads true only if it
vanishes at the drawn point, with probability at most 3/p (Schwartz 1980;
Zippel 1979), or if p divides all its coefficients.  Times (det K)^2 each
is a sum of at most dim^4 products of two minors, with rows of at most 2n
entries of size at most 2: some 2 800 bits at dimension 250, so as for the
rank below 2e-15.
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
    _arcs,
    _block_spans,
    _check_dim,
)
from .spectrum import Spectrum, _require_frobenius

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
# walk over the vertices.  index_oracle sets the bound: at it (Python 3.11,
# shared 2-core host, peak RSS of the whole process), one trial of 19/3|7|9
# takes 0.13-0.22 s at 18 MB, about 1 s at the default 5 trials, while of
# 2|17/6|13 (dimension 249) cybe_residual takes 0.04 s, and
# principal_element and ad_spectrum 0.011-0.018 s, each at 17 MB.
ORACLE_MAX_DIM = 250

# Most random functionals index_oracle draws; above it, it raises
# PreconditionError before the first draw.  Trials run one after another
# and each costs one rank modulo the call's prime, so at both bounds one
# call takes about 50 x 0.22 s, some 11 s, at the 18 MB of a single trial;
# at the default of 5 trials it takes about 1.2 s.
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
    first = [p for p, q in _block_spans(m.top) for _ in range(p, q + 1)]
    last = [q for p, q in _block_spans(m.bottom) for _ in range(p, q + 1)]
    positions = tuple(
        (i, j) for i, a, b in zip(range(1, m.n + 1), first, last) for j in range(a, b + 1)
    )
    return SeaweedPattern(m.n, positions)


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
    columns = range(pattern.dim)
    return [[row.get(c, 0) for c in columns] for row in _kirillov_rows(pattern, f)]


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


Pivot = tuple[int, int, dict[int, int]]


def _eliminate(
    rows: list[dict[int, int]], p: int, ncols: int | None = None
) -> list[Pivot]:
    """Sparse Gaussian elimination modulo the prime p of the integer matrix
    with rows {column: entry}; the input is not modified.

    Markowitz pivoting: the pivot is taken in the shortest remaining row,
    in its column with the fewest remaining rows, and one modular inverse
    per pivot clears that column from exactly the rows that have an entry
    there.  Pivots are taken only in the columns below ncols (in any column
    when ncols is None); the columns from ncols on hold right-hand sides.
    Returns (column, -1 / pivot, pivot row without its pivot) in the order
    the pivots were taken, so the rank is the length.
    """
    sparse: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> rows with an entry there
    for r, row in enumerate(rows):
        entries = {c: x for c, v in row.items() if (x := v % p)}
        if entries:
            sparse[r] = entries
            for c in entries:
                where.setdefault(c, set()).add(r)
    pivots: list[Pivot] = []
    while sparse:
        # (length, row) and (rows in column, column) pairs keep the
        # comparisons out of Python-level key functions
        _, r = min(zip(map(len, sparse.values()), sparse))
        base = sparse.pop(r)
        for c in base:
            where[c].discard(r)
        cols = base if ncols is None else [c for c in base if c < ncols]
        if not cols:  # 0 = b, with b != 0 when the system is inconsistent
            continue
        _, col = min(zip(map(len, map(where.__getitem__, cols)), cols))
        scale = p - pow(base.pop(col), -1, p)
        pivots.append((col, scale, base))
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
    return pivots


def _back_substitute(
    pivots: list[Pivot], p: int, ncols: int
) -> dict[int, dict[int, int]]:
    """x[c][j], unknown c of the solution mod p for right-hand side column
    ncols + j, from the pivots of _eliminate(rows, p, ncols); free unknowns
    and zeros are left out.  A pivot row has no entry in the columns of
    earlier pivots, so the rows are solved from the last to the first.
    """
    x: dict[int, dict[int, int]] = {}
    for col, scale, row in reversed(pivots):
        # pivot * x[col] = rhs - sum(row[c] * x[c]), and scale = -1 / pivot
        acc: dict[int, int] = {}
        for c, v in row.items():
            if c >= ncols:
                acc[c - ncols] = acc.get(c - ncols, 0) - v
            elif c in x:
                for j, w in x[c].items():
                    acc[j] = acc.get(j, 0) + v * w
        x[col] = {j: y for j, s in acc.items() if (y := s * scale % p)}
    return x


def _reconstruct(u: int, p: int) -> tuple[int, int] | None:
    """The fraction (a, b), b > 0, with a = b u mod p and |a|, b at most
    sqrt(p / 2), unique since 2 bound^2 < p, or None: the extended Euclidean
    algorithm on (p, u), stopped at the first remainder within the bound.
    """
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, u % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    # s p + t1 u = r1 with gcd(s, t1) = 1, so gcd(r1, t1) divides p: it is 1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _first_certified(solve, what: str):
    """The first result of solve(p) at p = _draw_prime(0), (1), (2) not None."""
    for k in range(3):
        result = solve(_draw_prime(k))
        if result is not None:
            return result
    raise ConsistencyError(f"no certified {what} modulo three primes")


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
    if type(trials) is not int or trials < 1:
        raise PreconditionError("trials must be >= 1")
    if trials > ORACLE_MAX_TRIALS:
        raise PreconditionError(
            f"{trials} trials exceed the oracle budget {ORACLE_MAX_TRIALS}"
        )
    if m.n == 0:
        raise PreconditionError("the empty meander has no seaweed")
    _check_dim(m, ORACLE_MAX_DIM, "oracle")
    rng = random.Random(seed)
    pattern = seaweed_positions(m)
    p = _draw_prime(seed)
    functionals = ({q: rng.randint(-100, 100) for q in pattern.positions} for _ in range(trials))
    rank = max(len(_eliminate(_kirillov_rows(pattern, f), p)) for f in functionals)
    return pattern.dim - rank - 1


def canonical_functional(m: MeanderType) -> Functional:
    """The edge functional: coefficient 1 at each oriented meander arc.

    Top arcs are taken right-to-left and bottom arcs left-to-right, which
    always lands inside the seaweed pattern; this is checked and a failure
    is an internal inconsistency.
    """
    support: Functional = {(v, u): 1 for u, v, _ in _arcs(m.top)}
    support.update({(u, v): 1 for u, v, _ in _arcs(m.bottom)})
    outside = support.keys() - set(seaweed_positions(m).positions)
    if outside:
        raise ConsistencyError(f"canonical functional leaves the pattern at {min(outside)}")
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


def _trace_zero_system(
    pattern: SeaweedPattern, f: Functional, rhs: list[Functional]
) -> list[dict[int, int]]:
    """Rows of K y = rhs[k] (in column dim + k), trace y = 0, for _eliminate;
    K is the Kirillov form of f."""
    pos, dim = pattern.positions, pattern.dim
    rows = [
        r | {dim + k: b[q] for k, b in enumerate(rhs) if q in b}
        for r, q in zip(_kirillov_rows(pattern, f), pos)
    ]
    return rows + [{c: 1 for c, (i, j) in enumerate(pos) if i == j}]


def _frobenius_setup(m: MeanderType) -> tuple[SeaweedPattern, Functional]:
    """The pattern and canonical functional of m for the two solves, once
    m is within the dimension budget and then past the Frobenius gate,
    which walks m and refuses the empty meander too."""
    _check_dim(m, ORACLE_MAX_DIM, "oracle")
    _require_frobenius(m)
    return seaweed_positions(m), canonical_functional(m)


def principal_element(m: MeanderType) -> PrincipalElement:
    """Solve F([Fhat, e_ij]) = F(e_ij) over all pattern positions, exactly.

    F is the canonical edge functional.  For a Frobenius meander the
    solutions form a line along the identity, and one more equation, trace
    zero, picks one; it is solved mod p, lifted and certified (see the
    module docstring).  The certified solution must be diagonal, or
    ConsistencyError is raised.  A meander of nonzero index, the empty one
    included, raises NotFrobeniusError, once the dimension is within the
    budget.
    """
    pattern, f = _frobenius_setup(m)
    pos = pattern.positions
    dim = pattern.dim
    # F([Fhat, e_ij]) = -F([e_ij, Fhat]), so the system is K x = -F
    rows = _trace_zero_system(pattern, f, [{q: -v for q, v in f.items()}])

    def solve(p: int) -> PrincipalElement | None:
        x = _back_substitute(_eliminate(rows, p, dim), p, dim)
        entries: dict[Position, Fraction] = {}
        for c, q in enumerate(pos):
            if x.get(c):
                frac = _reconstruct(x[c][0], p)
                if frac is None:
                    return None
                entries[q] = Fraction(*frac)
        fhat = PrincipalElement(m.n, entries)
        if sum(fhat.diagonal()) != 0 or any(
            _feval(f, _bracket(entries, {q: 1})) != f.get(q, 0) for q in pos
        ):
            return None
        return fhat

    fhat = _first_certified(solve, "principal element")
    if not fhat.is_diagonal:
        raise ConsistencyError("principal element is not diagonal")
    return fhat


def ad_spectrum(m: MeanderType) -> Spectrum:
    """Eigenvalues of ad Fhat on the seaweed: differences of diagonal entries.

    The multiplicity of 0 is reduced by one, removing the central identity
    direction of the gl(n) seaweed.  The difference formula needs Fhat
    diagonal, which principal_element checks.  Its errors pass through: a
    meander of nonzero index, the empty one included, raises
    NotFrobeniusError, once the dimension is within the budget.
    """
    diag = principal_element(m).diagonal()
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

    r is the inverse of the Kirillov form of the canonical functional on the
    trace-zero seaweed.  The residual is taken mod p at three covectors from
    a generator seeded with p: false is always right, and true is wrong with
    probability below 3e-15 (see the module docstring).  A meander of
    nonzero index, the empty one included, raises NotFrobeniusError, once
    the dimension is within the budget.
    """
    pattern, f = _frobenius_setup(m)
    pos = pattern.positions
    dim = pattern.dim

    def solve(p: int) -> bool | None:
        rng = random.Random(p)
        covectors = [{q: rng.randrange(p) for q in pos} for _ in range(3)]
        for u in covectors:  # zero on the identity: a covector of the sl seaweed
            u[1, 1] = (u[1, 1] - sum(u[i, i] for i in range(1, m.n + 1))) % p
        rows = _trace_zero_system(pattern, f, covectors)
        pivots = _eliminate(rows, p, dim)
        if len(pivots) < dim:  # K is singular mod p
            return None
        x = _back_substitute(pivots, p, dim)
        ys = [[x.get(c, {}).get(k, 0) for c in range(dim)] for k in range(3)]
        # the check: every row, the trace row too, holds mod p for each y
        if any(
            (sum(v * y[c] for c, v in row.items() if c < dim) - row.get(dim + k, 0)) % p
            for row in rows
            for k, y in enumerate(ys)
        ):
            return None
        (u, v, w), (ru, rv, rw) = covectors, [dict(zip(pos, y)) for y in ys]
        # u([rv, rw]) + v([rw, ru]) + w([ru, rv])
        terms = ((u, rv, rw), (v, rw, ru), (w, ru, rv))
        return sum(_feval(a, _bracket(b, c)) for a, b, c in terms) % p == 0

    return _first_certified(solve, "Yang-Baxter residual")
