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
    _check_dim,
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

# Most admissible pairs (the seaweed dimension, at least the order) that
# spectrum and block_measures accept; above it they raise PreconditionError
# before the walk of the Frobenius check allocates per vertex.  At
# it (Python 3.11, shared 2-core host, peak RSS), spectrum of 1154|1155/2309
# takes 0.6 s at 16 MB, and of 2|...|2/1|2|...|2|1 of order 2e6 3.5-3.8 s at 215 MB.
SPECTRUM_MAX_DIM = 4_000_000


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
    both from one walk.  Callers check a dimension budget."""
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

    Strict pairs are taken right to left in a top block and left to right
    in a bottom block, and (q - p + 1) // 2 zeros stand for the diagonal.
    A block of size 1 adds nothing."""
    get = dims.get
    for i in range(p, q + 1):
        fi = phi[i]
        for j in range(p, i) if top else range(i + 1, q + 1):
            e = phi[j] - fi
            dims[e] = get(e, 0) + 1
    if q > p:
        dims[0] = get(0, 0) + (q - p + 1) // 2
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
    (index -1) included, raises NotFrobeniusError, and a dimension over
    SPECTRUM_MAX_DIM raises PreconditionError before that check.
    """
    _check_dim(m, SPECTRUM_MAX_DIM, "spectrum")
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
    spectrum is."""
    if side not in ("top", "bottom"):
        raise PreconditionError(f"side must be 'top' or 'bottom', got {side!r}")
    _check_dim(m, SPECTRUM_MAX_DIM, "spectrum")
    phi = _require_frobenius(m)
    comp = m.top if side == "top" else m.bottom
    if not (1 <= k <= len(comp)):
        raise PreconditionError(f"no {side} block {k}")
    p, q = list(_block_spans(comp))[k - 1]
    return _elements(_count_block(phi, p, q, side == "top", {}))


def spectrum_to_json(s: Spectrum) -> dict:
    """The documented JSON shape: sorted eigenvalues, then the shape flags
    in SpectrumFlags field order."""
    return {"eigenvalues": [{"e": e, "dim": s[e]} for e in sorted(s)], **vars(classify(s))}
