"""Eigenvalues of a Frobenius meander, computed graph-theoretically.

Orient every top arc leftward (toward the smaller vertex) and every bottom
arc rightward.  The *measure* of an ordered vertex pair in a common path
component is the number of forward arcs minus the number of backward arcs
met when walking from the first vertex to the second.

A pair (i, j) is *admissible* when i < j and both lie in the same bottom
block, or i >= j and both lie in the same top block (so each diagonal pair
is counted once, through its top block).  The admissible pairs number
(sum a_k^2 + sum b_k^2) / 2, the dimension of the matching seaweed
subalgebra of gl(n).

For a Frobenius meander (a single path, so every measure is defined) the
multiset of measures over all admissible pairs, with the multiplicity of 0
reduced by one, is the spectrum of the adjoint of the principal element of
the corresponding seaweed subalgebra of sl(n).

Measures are read off potentials, which core._walk sets in its one walk
over the partner arrays: every vertex of a path gets a potential phi that
rises by 1 along each oriented arc, so the measure of (i, j) is
phi(j) - phi(i), and root, the end its path was walked from, so i and j
share a path exactly when their roots are equal.  Cycle vertices keep phi
None and root 0.  The same walk counts cycles and paths, and the index is
2 * cycles + paths - 1, so the Frobenius check reads it off the walk that
gave the potentials; this module walks nothing itself.

The spectrum is the multiset union of the block measures: the measures of
the strict pairs of each block plus floor(size/2) zeros.  For index 0 the
graph has no cycle and one path, so exactly n - 1 arcs; a block of size k
holds floor(k/2) of them, so the block zeros sum to n - 1, which is the n
diagonal pairs less the one zero the spectrum drops.

Along the tree of Frobenius meanders that winding._meander_tree walks, a
child's spectrum is therefore its parent's less the measures of the
blocks the up-move replaces plus those of the blocks it makes, block 1 of
each side; every other block keeps its measures.  Let the parent have top
blocks A1, A2, ... and bottom blocks B1, B2, ...; a non-flip up-move puts
d new vertices in front, and old vertex v becomes v + d.  A kept block
keeps its arcs, shifted, and its measures when its vertices keep their
potential differences.  They do when every excursion of the path through
the replaced blocks, from one vertex of a kept arc to the next, keeps its
ends and its net orientation, forward less backward arcs.  An arc that
points as it did counts as it did.

* ~B0 gives (2a1, ...)/(a1, b1, ...), d = a1, and replaces A1.  The arc
  of A1 from u to a1 + 1 - u becomes the path u + d, a1 + 1 - u, u,
  2a1 + 1 - u, over a top, a bottom and a top arc: the first counts +1,
  the last -1, and the middle one points as the old arc did.  An odd
  A1's centre gains a new end.  So every old vertex keeps its potential
  differences.
* ~P0 gives (a1 + 2a2, ...)/(a2, b1, ...), d = a2, and merges A1 and A2.
  The arcs of A1 are arcs of the merged block, and those of A2 become
  three-arc paths as under ~B0.  Every old vertex keeps its differences.
* ~R0 gives (2a1 - b1, ...)/(a1, b2, ...), d = a1 - b1, and replaces A1
  and B1.  An excursion enters at x0 = u in b1 + 1..a1 and alternates
  the arcs of A1 and B1 through x(2k) = u - kd and x(2k+1) = a1 + 1 - u
  + kd, leaving at the first x(2m+1) > b1.  In the child it visits x0, a
  new vertex, then x2, x1, x4, x3, ..., x(2m), x(2m-1), then a new vertex
  and x(2m+1).  Its bottom arcs point as the parent's top arcs did, its
  inner top arcs as the parent's bottom arcs did, and its first and last
  arcs count +1 and -1.  Dead ends, at the centre of a block, fall at
  the same step.  So the vertices after B1, which hold every kept block,
  keep their differences; those of B1, only in replaced blocks, need not.
* ~F0 swaps the sides of every arc, so it negates every potential and
  walks the path from the same end.  A top block read right to left
  becomes a bottom block read left to right, so each block keeps its
  measures on the other side, and the spectrum is the parent's.

The kept differences are what the lab scans reuse: a child's potentials
are its parent's on every vertex after the child's bottom block 1, only
the vertices of that block are set afresh, and a flip's are its
parent's with the sign turned.

A block's measures need only the potentials of its arc starts.  Read a
block of size k in its pair order, right to left in a top block and left
to right in a bottom one, as x_0, ..., x_(k-1), so that its strict pairs
are (x_s, x_t) with s < t, of measure x_t - x_s.  Its h = floor(k/2) arcs
join x_d and x_(k-1-d) for d < h, and each points from its end x_d, its
start, to the other end in both cases, so x_(k-1-d) = x_d + 1.  With s_d
the start potential x_d:

* the arc's own pair (x_d, x_(k-1-d)) measures 1, and its diagonal pair
  adds the 0 that stands for it, so each arc adds one 1 and one 0;
* two arcs d < e nest, x_d < x_e < x_(k-1-e) < x_(k-1-d) in the order,
  and with D = s_e - s_d their four cross pairs measure D, D + 1, 1 - D
  and -D;
* in an odd block the centre c, at position h, lies between every start
  and its end, so with E = phi(c) - s_d each arc adds E and 1 - E.

These are all k(k-1)/2 strict pairs: h + 4 h(h-1)/2, and 2h more in an
odd block.
The pair part is thus fixed by the histogram of the start potentials,
whose autocorrelation counts the arc pairs at each difference D; the
four measures of a pair do not depend on the sign of D.  Each measure
above comes with its mirror 1 - e: D with 1 - D, -D with 1 + D, 1 with
0 and E with 1 - E.  So every block multiset, and the spectrum, their
union, is symmetric about one half by construction, whatever the
potentials; only its being unbroken depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    WALK_MAX_ORDER,
    Composition,
    MeanderType,
    NotFrobeniusError,
    PreconditionError,
    _block_spans,
    _check_budget,
    _partners,
    _walk,
)

__all__ = [
    "Spectrum",
    "SpectrumFlags",
    "admissible_pairs",
    "measure",
    "spectrum",
    "classify",
    "block_measures",
    "spectrum_to_json",
]

# eigenvalue -> dimension of its eigenspace
Spectrum = dict[int, int]

# Largest order that spectrum and block_measures accept; above it they
# raise PreconditionError before the walk of the Frobenius check allocates
# per vertex.  A block's cost follows its arcs and the range of their start
# potentials, not its pairs, and the worst input is one block as large as
# the order, such as N/1|N-1: its two products of N slots of 2-3 bytes
# each cost superlinear time (Karatsuba).  At it (Python 3.11, shared
# 2-core host, in process, peak RSS), `spectrum 200000/1|199999` takes
# 2.6-4.0 s at 109 MB, printing about 400 000 eigenvalues, and
# 2|...|2/1|2|...|2|1 0.3-0.7 s at 38 MB.
SPECTRUM_MAX_ORDER = 200_000

# Most measures block_measures lists, a block's strict pairs and its
# floor(size/2) zeros, checked from the block size: the order budget alone
# would let one block list about 2e10.  At it (same host), the bottom block
# of 1|2827/2828 lists 3 998 792 measures in 0.2 s at 48 MB.
BLOCK_MEASURES_MAX = 4_000_000

# Blocks of at least this many arcs count their arc pairs by one product,
# smaller ones pair by pair.  Per block (same host, blocks of Frobenius
# meanders), the loop over the pairs takes 4.7-5.9 us at 5 arcs against
# 6.0-7.1 us for the product, the two tie at 6 arcs (6.2-6.9 us), and at 15
# arcs the loop takes 32 us against 7.8 us.
_PRODUCT_MIN_ARCS = 6


@dataclass(frozen=True)
class SpectrumFlags:
    symmetric: bool
    unbroken: bool
    unimodal: bool
    strictly_unimodal: bool


def admissible_pairs(m: MeanderType) -> list[tuple[int, int]]:
    """All admissible pairs, top-block pairs (i >= j) then bottom (i < j)."""
    out = []
    for p, q in _block_spans(m.top):
        for i in range(p, q + 1):
            for j in range(p, i + 1):
                out.append((i, j))
    for p, q in _block_spans(m.bottom):
        for i in range(p, q + 1):
            for j in range(i + 1, q + 1):
                out.append((i, j))
    return out


def _require_frobenius(m: MeanderType) -> list[int | None]:
    """phi of m if m is Frobenius, else NotFrobeniusError with the index,
    both from one walk.  Callers check an order budget."""
    phi, _, cycles, paths = _walk(*_partners(m.top, m.bottom))
    ix = 2 * cycles + paths - 1
    if ix:
        raise NotFrobeniusError(f"not Frobenius (index {ix})", ix)
    return phi


def measure(m: MeanderType, i: int, j: int) -> int:
    """Forward minus backward arcs along the unique path from v_i to v_j.

    Raises PreconditionError when the vertices live in different components
    or their component is a cycle (no unique route).  Each call costs O(n):
    it builds the partner arrays and walks every component, so an order
    over core.WALK_MAX_ORDER raises PreconditionError first.
    """
    n = m.n
    _check_budget("order", n, WALK_MAX_ORDER, "walk")
    if not (1 <= i <= n and 1 <= j <= n):
        raise PreconditionError(f"vertex out of range 1..{n}: ({i}, {j})")
    phi, root, _, _ = _walk(*_partners(m.top, m.bottom))
    if not (root[i] and root[j]):
        raise PreconditionError("measure undefined on a cycle component")
    if root[i] != root[j]:
        raise PreconditionError(f"v{i} and v{j} lie in different components")
    return phi[j] - phi[i]  # type: ignore[operator]


def _count_block(
    phi: list[int | None], p: int, q: int, top: bool, dims: Spectrum
) -> Spectrum:
    """Add the measures of the block spanning p..q to dims and return it.

    The block is read in its pair order, right to left in a top block and
    left to right in a bottom block, and only the potentials of its
    floor(size/2) arc starts and of an odd block's centre are read (see
    the module docstring): each arc adds 1 and 0, each pair of arcs D,
    -D, 1 + D and 1 - D for the difference D of their starts, and the
    centre E and 1 - E per arc.  Below _PRODUCT_MIN_ARCS arcs the pairs
    are taken one by one; from it on one big-integer product of the start
    histogram with its reverse (Kronecker substitution, one byte-aligned
    slot per potential) counts the pairs at every difference at once, in
    time that follows the range of the starts.  A block of size 1 adds
    nothing."""
    h = (q - p + 1) >> 1
    if not h:
        return dims
    get = dims.get
    starts = phi[q:q - h:-1] if top else phi[p:p + h]
    if h < _PRODUCT_MIN_ARCS:
        dims[0] = get(0, 0) + h
        dims[1] = get(1, 0) + h
        i = 1
        for s in starts:
            for t in starts[i:]:
                d = t - s
                dims[d] = get(d, 0) + 1
                dims[-d] = get(-d, 0) + 1
                dims[d + 1] = get(d + 1, 0) + 1
                dims[1 - d] = get(1 - d, 0) + 1
            i += 1
    else:
        lo = min(starts)
        span = max(starts) - lo + 1
        hist = [0] * span
        for s in starts:
            hist[s - lo] += 1
        # slot D of the upper half of the product counts the ordered pairs
        # of starts D apart; none exceeds slot 0, the sum of the squared
        # counts, so slots of that many bits, in whole bytes, never carry
        width = (sum(c * c for c in hist).bit_length() + 7) >> 3
        fwd = int.from_bytes(b"".join([c.to_bytes(width, "little") for c in hist]), "little")
        hist.reverse()
        rev = int.from_bytes(b"".join([c.to_bytes(width, "little") for c in hist]), "little")
        both = ((fwd * rev) >> (8 * width * (span - 1))).to_bytes(width * span, "little")
        # slot 0 counts each start with itself, for its arc's 1 and 0, and
        # each pair of arcs 0 apart twice, for its measures 0, 0, 1 and 1
        c = int.from_bytes(both[:width], "little")
        dims[0] = get(0, 0) + c
        dims[1] = get(1, 0) + c
        for d in range(1, span):
            c = int.from_bytes(both[d * width:(d + 1) * width], "little")
            if c:
                dims[d] = get(d, 0) + c
                dims[-d] = get(-d, 0) + c
                dims[d + 1] = get(d + 1, 0) + c
                dims[1 - d] = get(1 - d, 0) + c
    if not (q - p) & 1:
        c = phi[p + h]
        for s in starts:
            e = c - s
            dims[e] = get(e, 0) + 1
            e = 1 - e
            dims[e] = get(e, 0) + 1
    return dims


def _spectrum_raw(phi: list[int | None], top: Composition, bottom: Composition) -> Spectrum:
    """Spectrum of a known-Frobenius meander from its potentials (no checks)."""
    dims: Spectrum = {}
    for comp, is_top in ((top, True), (bottom, False)):
        for p, q in _block_spans(comp):
            _count_block(phi, p, q, is_top, dims)
    return dims


def spectrum(m: MeanderType) -> Spectrum:
    """Measure multiset over admissible pairs, 0-multiplicity reduced by one.

    Defined only for Frobenius meanders; anything else, the empty meander
    (index -1) included, raises NotFrobeniusError, and an order over
    SPECTRUM_MAX_ORDER raises PreconditionError before that check.
    """
    _check_budget("order", m.n, SPECTRUM_MAX_ORDER, "spectrum")
    return _spectrum_raw(_require_frobenius(m), m.top, m.bottom)


def classify(s: Spectrum) -> SpectrumFlags:
    """Shape flags of a spectrum.

    symmetric: the range is -a..a+1 and dim(e) == dim(1-e) throughout.
    unbroken: the eigenvalues form a contiguous integer interval.
    unimodal: dimensions never decrease up to 0 and never increase from 1.
    strictly_unimodal: strict versions, the 0/1 pair exempt.

    The empty spectrum satisfies all four vacuously.
    """
    if not s:
        return SpectrumFlags(True, True, True, True)
    lo = min(s)
    hi = max(s)
    d = s.get
    unbroken = all(e in s for e in range(lo, hi + 1))
    symmetric = hi == 1 - lo and all(d(e, 0) == d(1 - e, 0) for e in range(lo, hi + 1))
    unimodal = all(d(e, 0) <= d(e + 1, 0) for e in range(lo, 0)) and all(
        d(e, 0) >= d(e + 1, 0) for e in range(1, hi)
    )
    strictly = all(d(e, 0) < d(e + 1, 0) for e in range(lo, 0)) and all(
        d(e, 0) > d(e + 1, 0) for e in range(1, hi)
    )
    return SpectrumFlags(symmetric, unbroken, unimodal, strictly)


def _elements(dims: Spectrum) -> tuple[int, ...]:
    """The multiset dims as a sorted tuple."""
    return tuple(e for e in sorted(dims) for _ in range(dims[e]))


def block_measures(m: MeanderType, side: str, k: int) -> tuple[int, ...]:
    """Measures contributed inside one block of a Frobenius meander.

    Strict pairs are taken right-to-left in top blocks and left-to-right in
    bottom blocks, and 0 is included with multiplicity floor(size/2) for the
    diagonal pairs the block accounts for.  Sorted ascending.  Checked as
    spectrum is, and a block of more than BLOCK_MEASURES_MAX measures
    raises PreconditionError before the walk."""
    if side not in ("top", "bottom"):
        raise PreconditionError(f"side must be 'top' or 'bottom', got {side!r}")
    _check_budget("order", m.n, SPECTRUM_MAX_ORDER, "spectrum")
    comp = m.top if side == "top" else m.bottom
    size = comp[k - 1] if 1 <= k <= len(comp) else 0
    _check_budget("block measure count", size * (size - 1) // 2 + size // 2,
                  BLOCK_MEASURES_MAX, "spectrum")
    phi = _require_frobenius(m)
    if not (1 <= k <= len(comp)):
        raise PreconditionError(f"no {side} block {k}")
    p, q = list(_block_spans(comp))[k - 1]
    return _elements(_count_block(phi, p, q, side == "top", {}))


def spectrum_to_json(s: Spectrum) -> dict:
    """The documented JSON shape: sorted eigenvalues, then the shape flags
    in SpectrumFlags field order."""
    return {"eigenvalues": [{"e": e, "dim": s[e]} for e in sorted(s)], **vars(classify(s))}
