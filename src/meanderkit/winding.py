"""Winding-down reductions, signatures, and winding-up constructors.

Two deterministic reduction systems act on a non-empty meander with first
top block a1 and first bottom block b1:

* simplified moves  F0, C0(c), B0, R0, P0
* refined moves     F, C(c), B, R, IC(c), IB, IR, P

Shared cases (both alphabets):

    a1 < b1        Flip            exchange top and bottom
    a1 = b1        C(a1)           drop both first blocks (removes components)
    a1 = 2*b1      Block elim      top (b1, a2, ...),        bottom (b2, ...)
    b1 < a1 < 2b1  Rotation        top (b1, a2, ...),        bottom (2b1-a1, b2, ...)

For a1 > 2*b1 the simplified system always applies the pure contraction

    P0:  top (a1-2b1, b1, a2, ...), bottom (b2, ...)

while the refined system looks at the bottom block around the center of the
first top block (the point (a1+1)/2, kept exact by doubling coordinates):

    IC(c)  some bottom block B_i is centered exactly on the center of A1;
           remove B_i (c = b_i), top becomes a1 - b_i.  Like C, this is the
           only refined move that removes components.
    IB     a1 even and a bottom block B_i ends exactly at a1/2; remove B_i,
           top becomes a1 - b_i.
    IR     otherwise, with B_i the block containing the center: let r be the
           shortest distance from an end of B_i to the center and s = 2r+1;
           replace b_i by s and the top by a1 - b_i + s.
    P      when B_i pokes so far past A1 that the IR rewrite would not leave
           a positive first top block (a1 - b_i + s < 1), the pure
           contraction is applied instead.

Every move except a Flip strictly reduces the order, every move except a
component elimination (C, IC) preserves the component structure, and a Flip
is never applicable twice in a row, so the reduction reaches the empty
meander in finitely many steps.  The resulting move sequence is the
meander's signature; the index is the sum of the elimination parameters
minus one, and the multiset of those parameters is the plane homotopy type.

Each down-step has an exact inverse up-move (hatted, written with a ``~``
prefix: ``~C0(2) ~B0 ...``), so replaying a reversed signature from the
empty meander rebuilds the meander.  The up-moves double as free
constructors, which is how ``generate_frobenius`` manufactures index-zero
meanders of any size.

Inside this module each composition is held as a stack: a list in
reverse order, whose last entry is the first block.  Every move touches
only the first blocks, except the refined internal moves, so a down- or
up-move appends, pops or rewrites the end of a stack in O(1), and a flip
swaps the two stacks without copying them.  Building a signature
therefore costs in proportion to its length, with one exception: IC, IB
and IR (and their up-moves) still search the bottom blocks up to the
center of the first top block, O(blocks up to the center) per move, and
remove or insert their block at that position, which costs no more than
the search.  The public functions take and return tuple-based
``MeanderType`` values and convert at their boundary.

The simplified down-step also makes the Frobenius meanders a tree, which
``_frobenius_tree`` walks by reverse search (Avis and Fukuda, 1996).  The
root is 1/1, whose signature is C0(1) alone; the parent of any other
Frobenius meander is its simplified down-step, which is never a C0 (a C0
that leaves a meander would be followed by another).  The children of a
meander are the results of ~F0, ~B0, ~R0 and ~P0 whose own down-step
gives back that tag and exactly the meander, so each Frobenius meander
is reached once, from its parent.  The case table says which they are.
~B0 gives (2a1, a2, ...)/(a1, b1, ...), whose down-step is B0 since
2a1 = 2b1'.  ~R0, defined when a1 > b1, gives (2a1-b1, a2, ...)/(a1,
b2, ...), where b1' < a1' < 2b1', so R0.  ~P0, defined when there are
two top blocks, gives (a1+2a2, a3, ...)/(a2, b1, ...), where a1' > 2b1',
so P0.  Each of the three steps back down to exactly the meander, so it
is a child whenever it is defined.  The flip (bottom, top) steps down by
F0 exactly when a1 > b1; then its own a1' < b1', so no flip is taken
twice in a row.  Pruning every child of order above the bound loses
nothing: the down-step is deterministic, no step raises the order, so
every ancestor of a meander within the bound is within it too, and every
non-flip up-move raises the order.  The walk therefore costs a constant
number of tuple operations per meander found, against one component walk
per candidate, 4**(n-1) of them at order n, for a filter by index.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    Composition,
    MeanderType,
    ParseError,
    PreconditionError,
    _compositions,
    _parse_uint,
)

__all__ = [
    "Move",
    "UpMove",
    "RefinedStep",
    "HomotopySymbol",
    "PlaneHomotopyType",
    "WindUpError",
    "step_simplified",
    "signature_simplified",
    "step_refined",
    "step_refined_full",
    "signature_refined",
    "index_from_signature",
    "is_frobenius",
    "homotopy_type",
    "wind_up",
    "apply_up_move",
    "hat_reversed",
    "enumerate_meanders",
    "generate_frobenius",
    "signature_to_text",
    "parse_signature",
    "up_moves_to_text",
    "parse_up_moves",
]

SIMPLIFIED_TAGS = ("F0", "C0", "B0", "R0", "P0")
REFINED_TAGS = ("F", "C", "B", "R", "P", "IC", "IB", "IR")
_PARAMETRIC = {"C0", "C", "IC"}


@dataclass(frozen=True)
class Move:
    """One winding-down move; ``c`` is the elimination parameter."""

    tag: str
    c: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in SIMPLIFIED_TAGS and self.tag not in REFINED_TAGS:
            raise ParseError(f"unknown move tag {self.tag!r}")
        if (self.c is not None) != (self.tag in _PARAMETRIC):
            raise ParseError(f"move {self.tag} parameter mismatch: {self.c!r}")
        if self.c is not None and self.c < 1:
            raise ParseError(f"move parameter must be positive: {self.c}")

    def __str__(self) -> str:
        return self.tag if self.c is None else f"{self.tag}({self.c})"


@dataclass(frozen=True)
class UpMove:
    """One winding-up move.

    ``c`` is the size parameter of ~C0/~C/~IC.  ``block`` is the 1-based
    bottom-block index targeted by ~IB (the block the new block is created
    in front of) and, optionally, by ~IR (the block to expand; when omitted
    it defaults to the block containing the center of the first top block).
    """

    tag: str
    c: int | None = None
    block: int | None = None

    def __str__(self) -> str:
        if self.c is not None:
            return f"{self.tag}({self.c})"
        if self.block is not None:
            return f"{self.tag}({self.block})"
        return self.tag


@dataclass(frozen=True)
class RefinedStep:
    move: Move
    result: MeanderType
    undo: UpMove


# The moves without a parameter are shared, built and validated once.
_MOVES = {
    tag: Move(tag) for tag in SIMPLIFIED_TAGS + REFINED_TAGS if tag not in _PARAMETRIC
}
_UP_MOVES = {
    "~" + tag: UpMove("~" + tag) for tag in ("F0", "B0", "R0", "P0", "F", "B", "R", "P")
}


class WindUpError(PreconditionError):
    """An up-move's precondition failed; carries the 1-based step index."""

    def __init__(self, step: int, move: UpMove | None, reason: str):
        name = str(move) if move is not None else "?"
        super().__init__(f"step {step} ({name}): {reason}")
        self.step = step
        self.reason = reason


# ---------------------------------------------------------------------------
# Winding down
# ---------------------------------------------------------------------------


# Inside this module a composition is held as a stack: a list in reverse
# order, whose last entry is the first block.  A raw step maps the stacks
# (top, bottom) to (tag, c, new_top, new_bottom, undo), changing them in
# place; a flip returns them swapped.  undo encodes the inverting up-move
# as (tag, c, block).
def _step_simplified_raw(
    top: list[int], bottom: list[int]
) -> tuple[str, int | None, list[int], list[int], tuple]:
    a1 = top[-1]
    b1 = bottom[-1]
    if a1 < b1:
        return "F0", None, bottom, top, ("~F0", None, None)
    if a1 == b1:
        top.pop()
        bottom.pop()
        return "C0", a1, top, bottom, ("~C0", a1, None)
    top[-1] = b1
    if a1 == 2 * b1:
        bottom.pop()
        return "B0", None, top, bottom, ("~B0", None, None)
    if a1 < 2 * b1:
        bottom[-1] = 2 * b1 - a1
        return "R0", None, top, bottom, ("~R0", None, None)
    top.append(a1 - 2 * b1)
    bottom.pop()
    return "P0", None, top, bottom, ("~P0", None, None)


def _center_block(a1: int, bottom: list[int]) -> tuple[int, int, int]:
    """(k, p, q): the first bottom block, at stack index k, whose span
    p..q reaches the center of the first top block.

    Doubled coordinates: vertex v sits at 2v, the center at a1 + 1.  The
    block contains the center when 2p <= a1 + 1; otherwise a1 is even and
    the center is the gap after the block at k + 1, which ends at a1/2.
    """
    k = len(bottom) - 1
    p = 1
    while True:
        q = p + bottom[k] - 1
        if 2 * q > a1:
            return k, p, q
        k -= 1
        p = q + 1


def _step_refined_raw(
    top: list[int], bottom: list[int]
) -> tuple[str, int | None, list[int], list[int], tuple]:
    a1 = top[-1]
    b1 = bottom[-1]
    if a1 < b1:
        return "F", None, bottom, top, ("~F", None, None)
    if a1 == b1:
        top.pop()
        bottom.pop()
        return "C", a1, top, bottom, ("~C", a1, None)
    if a1 == 2 * b1:
        top[-1] = b1
        bottom.pop()
        return "B", None, top, bottom, ("~B", None, None)
    if a1 < 2 * b1:
        top[-1] = b1
        bottom[-1] = 2 * b1 - a1
        return "R", None, top, bottom, ("~R", None, None)

    # a1 > 2*b1: the bottom block around the center of A1 decides; it is
    # block i = len(bottom) - 1 - k counting from the front, from 0.
    k, p, q = _center_block(a1, bottom)
    if 2 * p > a1 + 1:
        # the center is a gap between bottom blocks: remove the block
        # ending at a1/2 and reinsert it in front of the block now at i + 1
        i = len(bottom) - 1 - k
        top[-1] = a1 - bottom[k + 1]
        del bottom[k + 1]
        return "IB", None, top, bottom, ("~IB", None, i)

    bi = bottom[k]
    if p + q == a1 + 1:
        top[-1] = a1 - bi
        del bottom[k]
        return "IC", bi, top, bottom, ("~IC", bi, None)
    r2 = min(abs(2 * p - a1 - 1), abs(2 * q - a1 - 1))
    s = r2 + 1
    delta = bi - s
    if a1 - delta < 1:
        # the center block extends too far past A1 for the rotation
        # rewrite; contract purely instead
        top[-1] = b1
        top.append(a1 - 2 * b1)
        bottom.pop()
        return "P", None, top, bottom, ("~P", None, None)
    top[-1] = a1 - delta
    bottom[k] = s
    return "IR", None, top, bottom, ("~IR", None, len(bottom) - k)


def _step(m: MeanderType, step_raw) -> tuple[Move, MeanderType, UpMove]:
    if m.n == 0:
        raise PreconditionError("cannot wind down the empty meander")
    tag, c, nt, nb, undo = step_raw(list(reversed(m.top)), list(reversed(m.bottom)))
    move = _MOVES.get(tag) or Move(tag, c)
    return move, MeanderType(nt[::-1], nb[::-1]), _UP_MOVES.get(undo[0]) or UpMove(*undo)


def _reduce(top: Composition, bottom: Composition, step_raw) -> list[Move]:
    """Apply step_raw until the meander is empty; the moves taken."""
    if not top:
        raise PreconditionError("the empty meander has the empty signature")
    top = list(reversed(top))
    bottom = list(reversed(bottom))
    sig = []
    while top:
        tag, c, top, bottom, _ = step_raw(top, bottom)
        sig.append(_MOVES.get(tag) or Move(tag, c))
    return sig


def step_simplified(m: MeanderType) -> tuple[Move, MeanderType]:
    """One simplified winding-down move; the case is forced by (a1, b1)."""
    move, result, _ = _step(m, _step_simplified_raw)
    return move, result


def signature_simplified(m: MeanderType) -> list[Move]:
    """Reduce m to the empty meander; the unique simplified signature."""
    return _reduce(m.top, m.bottom, _step_simplified_raw)


def step_refined(m: MeanderType) -> tuple[Move, MeanderType]:
    """One refined winding-down move; see the module docstring for cases."""
    move, result, _ = _step(m, _step_refined_raw)
    return move, result


def step_refined_full(m: MeanderType) -> RefinedStep:
    """Like step_refined, also returning the exact inverting up-move."""
    return RefinedStep(*_step(m, _step_refined_raw))


def signature_refined(m: MeanderType) -> list[Move]:
    """Reduce m to the empty meander over the refined alphabet."""
    return _reduce(m.top, m.bottom, _step_refined_raw)


def index_from_signature(sig: Sequence[Move]) -> int:
    """Sum of all elimination parameters minus one; -1 for the empty list."""
    return sum(mv.c for mv in sig if mv.c is not None) - 1


def is_frobenius(sig: Sequence[Move]) -> bool:
    """True iff the only elimination move is the final one, with parameter 1."""
    if not sig:
        return False
    for mv in sig[:-1]:
        if mv.c is not None:
            return False
    return sig[-1].c == 1


# ---------------------------------------------------------------------------
# Plane homotopy type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomotopySymbol:
    """The compressed picture of one eliminated component.

    Eliminating a block pair of size c leaves c//2 nested circles plus a
    center point when c is odd.
    """

    c: int

    @property
    def nested_cycles(self) -> int:
        return self.c // 2

    @property
    def has_center_path(self) -> bool:
        return self.c % 2 == 1

    def __str__(self) -> str:
        return "(" + "o" * self.nested_cycles + ("." if self.has_center_path else "") + ")"


@dataclass(frozen=True)
class PlaneHomotopyType:
    """Multiset of symbols; stored sorted by descending parameter."""

    symbols: tuple[HomotopySymbol, ...]

    @classmethod
    def from_parameters(cls, params: Iterable[int]) -> "PlaneHomotopyType":
        return cls(tuple(HomotopySymbol(c) for c in sorted(params, reverse=True)))

    def parameters(self) -> tuple[int, ...]:
        return tuple(s.c for s in self.symbols)

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.symbols)


def homotopy_type(m: MeanderType) -> PlaneHomotopyType:
    """One symbol per component-elimination move of the simplified signature."""
    sig = signature_simplified(m)
    return PlaneHomotopyType.from_parameters(mv.c for mv in sig if mv.c is not None)


# ---------------------------------------------------------------------------
# Winding up
# ---------------------------------------------------------------------------


def _apply_up_raw(
    tag: str,
    c: int | None,
    block: int | None,
    top: list[int],
    bottom: list[int],
) -> tuple[list[int], list[int]]:
    """Apply one up-move to the stacks (top, bottom) in place; raises
    PreconditionError.  A flip returns the two stacks swapped.  After a
    failed ~IR check the stacks are left changed: callers discard them.
    """
    if tag in ("~C", "~C0"):
        if c is None or c < 1:
            raise PreconditionError("component creation needs a positive size")
        top.append(c)
        bottom.append(c)
        return top, bottom
    if tag in ("~F", "~F0"):
        if not top:
            raise PreconditionError("cannot flip the empty meander")
        return bottom, top
    if not top:
        raise PreconditionError("only component creation applies to the empty meander")
    a1 = top[-1]
    b1 = bottom[-1]
    if tag in ("~B", "~B0"):
        top[-1] = 2 * a1
        bottom.append(a1)
    elif tag in ("~R", "~R0"):
        if a1 <= b1:
            raise PreconditionError("rotation expansion requires a1 > b1")
        top[-1] = 2 * a1 - b1
        bottom[-1] = a1
    elif tag in ("~P", "~P0"):
        if len(top) < 2:
            raise PreconditionError("pure creation requires at least two top blocks")
        top.pop()
        a2 = top[-1]
        top[-1] = a1 + 2 * a2
        bottom.append(a2)
    elif tag == "~IC":
        if c is None or c < 1:
            raise PreconditionError("~IC needs a positive size")
        if a1 % 2:
            raise PreconditionError("~IC requires an even first top block")
        k, p, _ = _center_block(a1, bottom)
        if 2 * p <= a1 + 1:
            raise PreconditionError(
                "~IC requires the vertex a1/2 to end a bottom block"
            )
        top[-1] = a1 + c
        bottom.insert(k + 1, c)
    elif tag == "~IB":
        if block is None:
            raise PreconditionError("~IB needs a target block index")
        if block < 2 or block > len(bottom):
            raise PreconditionError(f"~IB block index {block} out of range")
        # the blocks in front of the target end at vertex p - 1
        k = len(bottom) - block + 1
        size = a1 - 2 * sum(bottom[k:])
        if size < 1:
            raise PreconditionError(
                f"~IB target block starts too far right (would create size {size})"
            )
        top[-1] = a1 + size
        bottom.insert(k, size)
    elif tag == "~IR":
        if block is None:
            k, p, _ = _center_block(a1, bottom)
            if 2 * p > a1 + 1:
                raise PreconditionError(
                    "~IR: no bottom block contains the center of the first top block"
                )
            j = len(bottom) - k
        elif 1 <= block <= len(bottom):
            j = block
            k = len(bottom) - j
            p = 1 + sum(bottom[k + 1 :])
        else:
            raise PreconditionError(f"~IR block index {block} out of range")
        bj = bottom[k]
        delta = abs(a1 + 2 - 2 * p - bj)
        if delta == 0:
            raise PreconditionError("~IR: target block would be centered (use ~IC)")
        top[-1] = a1 + delta
        bottom[k] = bj + delta
        # the expansion is valid exactly when it inverts a refined IR step,
        # which changes no entry but these two
        tag2, _, _, _, undo = _step_refined_raw(top, bottom)
        if tag2 != "IR" or undo[2] != j or top[-1] != a1 or bottom[k] != bj:
            raise PreconditionError(
                "~IR: expanding this block does not invert a rotation contraction"
            )
        top[-1] = a1 + delta
        bottom[k] = bj + delta
    else:
        raise PreconditionError(f"unknown up-move tag {tag!r}")
    return top, bottom


def apply_up_move(move: UpMove, m: MeanderType) -> MeanderType:
    """Apply one up-move to a meander (the empty meander is MeanderType((), ()))."""
    nt, nb = _apply_up_raw(
        move.tag, move.c, move.block, list(reversed(m.top)), list(reversed(m.bottom))
    )
    return MeanderType(nt[::-1], nb[::-1])


def wind_up(seq: Iterable[UpMove]) -> MeanderType:
    """Build a meander from the empty meander by a sequence of up-moves.

    The first move must be a component creation.  Each move's precondition
    is checked at application time; violations raise WindUpError carrying
    the 1-based step index.
    """
    top: list[int] = []
    bottom: list[int] = []
    step = 0
    for move in seq:
        step += 1
        if step == 1 and move.tag not in ("~C", "~C0"):
            raise WindUpError(step, move, "the first move must create a component")
        try:
            top, bottom = _apply_up_raw(move.tag, move.c, move.block, top, bottom)
        except PreconditionError as exc:
            raise WindUpError(step, move, str(exc)) from exc
    if step == 0:
        raise WindUpError(0, None, "empty up-move sequence")
    return MeanderType(top[::-1], bottom[::-1])


def hat_reversed(sig: Sequence[Move]) -> list[UpMove]:
    """Reverse a simplified signature into the up-sequence that rebuilds it."""
    out = []
    for mv in reversed(sig):
        if mv.tag not in SIMPLIFIED_TAGS:
            raise PreconditionError(
                f"hat_reversed takes a simplified signature, got {mv.tag}"
            )
        out.append(_UP_MOVES.get("~" + mv.tag) or UpMove("~C0", mv.c))
    return out


# ---------------------------------------------------------------------------
# Enumeration and random construction
# ---------------------------------------------------------------------------


def enumerate_meanders(n: int) -> Iterator[MeanderType]:
    """All 4**(n-1) meanders of order n, lexicographic, top-major."""
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    comps = _compositions(n)
    for top in comps:
        for bottom in comps:
            yield MeanderType(top, bottom)


def _frobenius_tree(n_max: int) -> Iterator[tuple[Composition, Composition]]:
    """(top, bottom) of every Frobenius meander of order <= n_max, once each.

    Reverse search from 1/1; see the module docstring for the children.
    The pairs come in depth-first order, not sorted.
    """
    if n_max < 1:
        return
    stack = [((1,), (1,), 1)]
    while stack:
        top, bottom, n = stack.pop()
        yield top, bottom
        # the ~F0, ~B0, ~R0 and ~P0 children, each kept within the bound
        a1 = top[0]
        b1 = bottom[0]
        if a1 > b1:
            stack.append((bottom, top, n))
        if n + a1 <= n_max:
            stack.append(((2 * a1,) + top[1:], (a1,) + bottom, n + a1))
        if a1 > b1 and n + a1 - b1 <= n_max:
            stack.append(((2 * a1 - b1,) + top[1:], (a1,) + bottom[1:], n + a1 - b1))
        if len(top) > 1 and n + top[1] <= n_max:
            a2 = top[1]
            stack.append(((a1 + 2 * a2,) + top[2:], (a2,) + bottom, n + a2))


def _valid_up_moves(top: list[int], bottom: list[int]) -> list[UpMove]:
    """All Frobenius-preserving up-moves applicable to the stacks (top, bottom)."""
    a1 = top[-1]
    out = [_UP_MOVES["~F"], _UP_MOVES["~B"]]
    if a1 > bottom[-1]:
        out.append(_UP_MOVES["~R"])
    p = 1
    for b in range(1, len(bottom) + 1):
        if b > 1 and a1 - 2 * (p - 1) >= 1:
            out.append(UpMove("~IB", block=b))
        p += bottom[-b]
    for j in range(1, len(bottom) + 1):
        try:
            _apply_up_raw("~IR", None, j, top.copy(), bottom.copy())
        except PreconditionError:
            continue
        out.append(UpMove("~IR", block=j))
    return out


def generate_frobenius(moves: int, seed: int) -> MeanderType:
    """Random Frobenius meander: ~C(1) followed by `moves` random up-moves.

    Draws uniformly from the applicable Frobenius-preserving moves
    (flip, block/rotation expansion, and the internal creations with every
    valid target block).  Deterministic for a given seed.
    """
    if moves < 0:
        raise PreconditionError("moves must be >= 0")
    rng = random.Random(seed)
    top = [1]
    bottom = [1]
    for _ in range(moves):
        choice = rng.choice(_valid_up_moves(top, bottom))
        top, bottom = _apply_up_raw(choice.tag, choice.c, choice.block, top, bottom)
    return MeanderType(top[::-1], bottom[::-1])


# ---------------------------------------------------------------------------
# Textual form (the golden-test format)
# ---------------------------------------------------------------------------

# the parameter in parentheses is left to _parse_uint
_MOVE_RE = re.compile(r"^(~?[A-Z]+0?)(?:\((.*)\))?$")


def _match_move(token: str, up: bool) -> tuple[str, int | None]:
    """(tag, parameter) of one move token, hatted exactly when up is true."""
    m = _MOVE_RE.match(token)
    if not m or m.group(1).startswith("~") != up:
        raise ParseError(f"bad {'up-move' if up else 'move'} token {token!r}")
    tag, param = m.groups()
    if param is None:
        return tag, None
    return tag, _parse_uint(param, f"parameter in {token!r}")


def signature_to_text(sig: Sequence[Move]) -> str:
    return " ".join(str(mv) for mv in sig)


def parse_signature(text: str) -> list[Move]:
    out = []
    for token in text.split():
        out.append(Move(*_match_move(token, up=False)))
    return out


def up_moves_to_text(seq: Sequence[UpMove]) -> str:
    return " ".join(str(mv) for mv in seq)


_UP_TAGS = frozenset(
    ["~F", "~C", "~B", "~R", "~P", "~IC", "~IB", "~IR", "~F0", "~C0", "~B0", "~R0", "~P0"]
)


def parse_up_moves(text: str) -> list[UpMove]:
    out = []
    for token in text.split():
        tag, param = _match_move(token, up=True)
        if tag not in _UP_TAGS:
            raise ParseError(f"unknown up-move {tag!r}")
        if tag in ("~C", "~C0", "~IC"):
            if param is None:
                raise ParseError(f"{tag} needs a size parameter: {token!r}")
            out.append(UpMove(tag, c=param))
        elif tag == "~IB":
            if param is None:
                raise ParseError(f"{tag} needs a block index: {token!r}")
            out.append(UpMove(tag, block=param))
        elif tag == "~IR":
            out.append(UpMove(tag, block=param))
        elif param is not None:
            raise ParseError(f"up-move {tag} takes no parameter: {token!r}")
        else:
            out.append(UpMove(tag))
    return out
