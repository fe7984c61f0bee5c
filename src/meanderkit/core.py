"""Canonical meander representation.

A meander of order n is a planar graph on vertices v_1..v_n determined by a
pair of compositions of n (the *top* and *bottom* block sizes).  Each block of
size k spanning positions p..p+k-1 contributes the nested arcs
(p+i, p+k-1-i) for 0 <= i < k//2, drawn above the vertex line for top blocks
and below it for bottom blocks.  Every vertex meets at most one top arc and
at most one bottom arc, so every connected component is a simple path or a
simple cycle, and the index of the meander is

    2 * (number of cycles) + (number of paths) - 1.

This module owns the textual format ``a1|a2|...|ak / b1|...|bm`` used by the
whole package and the definition-level index computation that every other
computation is checked against.

``_walk`` is the one traversal of the partner arrays.  It walks each path
once, from its end of least index (a walk from an end cannot close on
itself), counting the paths and setting on each vertex a potential phi,
rising by 1 along each arc (top arcs point leftward, bottom arcs
rightward), and a root, the end it was reached from.  The vertices it
leaves unrooted have both arcs and lie on cycles, which alternate top and
bottom arcs; it counts those cycles with a local marker, and their
vertices keep phi None and root 0.  The index, the components, the
measures and the Frobenius check all read this one walk.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "Composition",
    "MeanderType",
    "MeanderGraph",
    "ComponentSummary",
    "MeanderError",
    "ParseError",
    "PreconditionError",
    "NotFrobeniusError",
    "ConsistencyError",
    "parse_type",
    "build_graph",
    "components",
    "index_naive",
]

# Most vertices index_naive and build_graph walk; spectrum.SPECTRUM_MAX_DIM
# bounds the order too.  At it (Python 3.11, shared 2-core host, peak RSS)
# `index --verify` takes 1.2 s at 510 MB on 1|3999999/4000000, whose walk
# holds a potential per vertex, and 9-12 s at 450 MB on 2|2|...|2/1|2|...|2|1,
# in parsing and 8 000 000 one-move runs.
WALK_MAX_ORDER = 4_000_000

# A composition is an ordered tuple of positive block sizes.  The empty tuple
# is the (top or bottom of the) empty meander.
Composition = tuple[int, ...]


class MeanderError(ValueError):
    """Base class for all meanderkit errors."""


class ParseError(MeanderError):
    """Malformed meander text, move text, or config input."""


class PreconditionError(MeanderError):
    """An operation was applied outside its domain."""


class NotFrobeniusError(PreconditionError):
    """Operation requires a Frobenius (index zero) meander."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class ConsistencyError(MeanderError):
    """Two routes that must agree did not; always a bug."""


def _check_composition(parts: Composition, side: str) -> None:
    for p in parts:
        if type(p) is not int or p < 1:
            raise ParseError(f"{side} composition has a non-positive part: {parts}")


@dataclass(frozen=True)
class MeanderType:
    """A pair of compositions with equal sums; the identity of a meander."""

    top: Composition
    bottom: Composition

    def __post_init__(self) -> None:
        top = tuple(self.top)
        bottom = tuple(self.bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        _check_composition(top, "top")
        _check_composition(bottom, "bottom")
        if sum(top) != sum(bottom):
            raise ParseError(
                f"top and bottom sums differ: {sum(top)} != {sum(bottom)}"
            )

    @property
    def n(self) -> int:
        return sum(self.top)

    def flip(self) -> "MeanderType":
        """The meander with top and bottom exchanged."""
        return MeanderType(self.bottom, self.top)

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class MeanderGraph:
    """Arc diagram of a meander.

    Stored as two partner arrays indexed 1..n (entry 0 is padding): the
    vertex each v is tied to by its top arc and by its bottom arc, 0 when
    there is none.
    """

    n: int
    top_partner: tuple[int, ...]
    bottom_partner: tuple[int, ...]

    def edges(self) -> set[tuple[int, int, str]]:
        """All arcs as (u, v, side) with u < v, side in {'top', 'bottom'}."""
        out: set[tuple[int, int, str]] = set()
        for v in range(1, self.n + 1):
            t = self.top_partner[v]
            if t > v:
                out.add((v, t, "top"))
            b = self.bottom_partner[v]
            if b > v:
                out.add((v, b, "bottom"))
        return out


@dataclass(frozen=True)
class ComponentSummary:
    cycles: int
    paths: int


def _parse_uint(item: str, what: str) -> int:
    """The value of a nonempty run of ASCII digits [0-9]+; ParseError otherwise.

    str.isdigit, int() and the re module's \\d alone also accept other
    Unicode digits, some of which int() then rejects.
    """
    if not (item.isascii() and item.isdigit()):
        raise ParseError(f"bad {what}: {item!r}")
    try:
        return int(item)
    except ValueError:  # past the interpreter's limit on digits
        raise ParseError(
            f"bad {what}: {len(item)} digits, more than the limit of "
            f"{sys.get_int_max_str_digits()}"
        ) from None


def parse_type(text: str) -> MeanderType:
    """Parse ``comp "/" comp`` where ``comp := int ("|" int)*``.

    Whitespace around tokens is ignored.  Raises ParseError on malformed
    text, a zero or negative part, or a top/bottom sum mismatch.
    """
    if text.count("/") != 1:
        raise ParseError(f"expected exactly one '/': {text!r}")
    top_text, bottom_text = text.split("/")

    def comp(part_text: str, side: str) -> Composition:
        items = part_text.split("|")
        what = f"{side} part of {text!r}"
        parts = []
        for item in items:
            value = _parse_uint(item.strip(), what)
            if value < 1:
                raise ParseError(f"zero part in {side} of {text!r}")
            parts.append(value)
        return tuple(parts)

    return MeanderType(comp(top_text, "top"), comp(bottom_text, "bottom"))


def format_type(m: MeanderType) -> str:
    return "|".join(map(str, m.top)) + "/" + "|".join(map(str, m.bottom))


# ---------------------------------------------------------------------------
# Graph construction and component analysis.  The private tuple-level
# functions are the hot path for exhaustive scans; the public operations
# wrap them in the domain types.
# ---------------------------------------------------------------------------


def _block_spans(comp: Composition) -> Iterator[tuple[int, int]]:
    """(first, last) vertex of each block, left to right."""
    pos = 1
    for k in comp:
        yield pos, pos + k - 1
        pos += k


def _arcs(comp: Composition) -> list[tuple[int, int, int]]:
    """(left, right, depth) of each arc of one side.  Arcs of different
    blocks never nest, so arc d of block p..q is (p+d, q-d) at depth d+1."""
    return [(p + d, q - d, d + 1) for p, q in _block_spans(comp) for d in range((q - p + 1) // 2)]


def _partners(top: Composition, bottom: Composition) -> tuple[list[int], list[int]]:
    n = sum(top)
    tp = [0] * (n + 1)
    bp = [0] * (n + 1)
    for comp, partner in ((top, tp), (bottom, bp)):
        pos = 1
        for k in comp:
            last = pos + k - 1
            for d in range(k // 2):
                partner[pos + d] = last - d
                partner[last - d] = pos + d
            pos += k
    return tp, bp


def _walk(
    tp: Sequence[int], bp: Sequence[int]
) -> tuple[list[int | None], list[int], int, int]:
    """(phi, root, cycles, paths) of the arc diagram given by its partner
    arrays, as the module docstring describes: two vertices share a path
    exactly when their roots are equal, and phi[j] - phi[i] is then the
    measure of (i, j).  Cycle vertices keep phi None and root 0."""
    n = len(tp) - 1
    phi: list[int | None] = [None] * (n + 1)
    root = [0] * (n + 1)
    paths = 0
    for v in range(1, n + 1):
        if root[v] or (tp[v] and bp[v]):
            continue
        paths += 1
        phi[v] = f = 0
        root[v] = v
        prev, cur = 0, v
        while True:
            nxt = tp[cur]
            if nxt and nxt != prev:
                f += 1 if nxt < cur else -1
            else:
                nxt = bp[cur]
                if not nxt or nxt == prev:
                    break
                f += 1 if nxt > cur else -1
            phi[nxt] = f
            root[nxt] = v
            prev, cur = cur, nxt
    # Every vertex left unrooted lies on a cycle, which alternates top and
    # bottom arcs; each is counted at its least vertex and marked whole.
    # root[0] is a padding 0, so a count of 1 means no cycle.
    cycles = 0
    if root.count(0) > 1:
        seen = bytearray(n + 1)
        for v in range(1, n + 1):
            if root[v] or seen[v]:
                continue
            cycles += 1
            cur = v
            while not seen[cur]:
                seen[cur] = seen[tp[cur]] = 1
                cur = bp[tp[cur]]
    return phi, root, cycles, paths


def _index(top: Composition, bottom: Composition) -> int:
    _, _, cycles, paths = _walk(*_partners(top, bottom))
    return 2 * cycles + paths - 1


def build_graph(m: MeanderType) -> MeanderGraph:
    """Arc diagram of m per the block construction, within WALK_MAX_ORDER."""
    _check_budget("order", m.n, WALK_MAX_ORDER, "walk")
    tp, bp = _partners(m.top, m.bottom)
    return MeanderGraph(m.n, tuple(tp), tuple(bp))


def components(g: MeanderGraph) -> ComponentSummary:
    """Count connected components, classified as cycles or paths.

    A component is a cycle when every vertex in it has both arcs; anything
    else, including an isolated vertex, is a path.
    """
    return ComponentSummary(*_walk(g.top_partner, g.bottom_partner)[2:])


def index_naive(m: MeanderType) -> int:
    """Definition-level index: 2*cycles + paths - 1.

    The empty meander is assigned index -1 by convention, consistent with
    the signature formula (sum of elimination parameters minus one).
    """
    n = m.n
    if n == 0:
        return -1
    _check_budget("order", n, WALK_MAX_ORDER, "walk")
    return _index(m.top, m.bottom)


def _check_budget(what: str, value: int, limit: int, budget: str) -> None:
    """Raise PreconditionError, naming the budget, if value exceeds limit.
    A value past the interpreter's limit on digits is named by its size."""
    if value > limit:
        try:
            shown = str(value)
        except ValueError:
            shown = f"of more than {sys.get_int_max_str_digits()} digits"
        raise PreconditionError(f"{what} {shown} exceeds the {budget} budget {limit}")


def _check_dim(m: MeanderType, limit: int, budget: str) -> None:
    """_check_budget of the seaweed dimension of m, read off the block sizes."""
    dim = (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2
    _check_budget("seaweed dimension", dim, limit, budget)


def _compositions(n: int) -> Iterator[Composition]:
    """All compositions of n in lexicographic order, lazily: the successor
    of (..., y, x) is (..., y + 1) followed by x - 1 ones."""
    parts = [1] * n
    while True:
        yield tuple(parts)
        if len(parts) < 2:
            return
        x = parts.pop()
        parts[-1] += 1
        if x > 1:
            parts += [1] * (x - 1)
