"""Winding-down reductions, signatures, and winding-up constructors.

Two deterministic reduction systems act on a non-empty meander with first
top block a1 and first bottom block b1:

* simplified moves  F0, C0(c), B0, R0, P0
* refined moves     F, C(c), B, R, IC(c), IB, IR, P

Shared cases (both alphabets, one code path for all but the flip):

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

Inside this module a meander is one pair ``sides = [top, bottom]`` of
stacks: lists in reverse order, whose last entry is the first block.
Every move touches only the first blocks, except the refined internal
moves, so a down- or up-move appends, pops or rewrites the end of a stack
in O(1), and a flip reverses the pair in place.  The public functions take
and return tuple-based ``MeanderType`` values and convert at their boundary.

The one reduction driver, ``_reduce``, produces runs (move, count).  Where
a run of equal moves has a closed form it is taken at once, as one
division of a Euclid-like contraction (Dergachev and Kirillov, 2000; Coll
et al., "Meander graphs and Frobenius seaweed Lie algebras"), so a
signature costs per run, not per move:

* R0 and R (b1 < a1 < 2b1) send a1 | b1 to b1 | b1 - d, d = a1 - b1, so d
  stays fixed, and the next move is again a rotation while the new bottom
  block stays above d.  From b1 the run has q = (b1 - 1) // d moves and
  ends at bottom x = b1 - q*d, top x + d.
* IR rewrites a center block B_i = p..p+b_i-1 to b_i = r + 1, keeping its
  start, and a1 to a1 - delta.  Here r = min(a1 + 1 - 2p, 2(p + b_i - 1) -
  a1 - 1) is the doubled distance from the center to the near end of B_i,
  and delta = b_i - r - 1 > 0.  In doubled coordinates the center moves
  delta to the left and the right end of B_i 2*delta, so both ends come
  delta nearer the center: the near end stays the near one, r falls by
  delta, and the next delta is (r + 1) - (r - delta) - 1, the same.  The
  next move is again IR on B_i while r >= 0 (B_i still holds the center)
  and a1 - delta >= 1 (no P).  a1 > 2*b1 then holds too, since the center
  lies at or right of p > b1.  So the run has
  q = 1 + min(r // delta, (a1 - 1) // delta - 1) moves and ends at
  a1 - q*delta, b_i = r - (q - 1)*delta + 1.

Winding up costs per run on the runs that a signature shares.  _expand
writes an R0^q run as q references to one move instance, hat_reversed maps
that instance once and repeats its one ~R0, and wind_up recognises the
repeats by identity alone.  ~R0 and ~R send a1 | b1 to 2a1 - b1 | a1, so
both first blocks grow by d = a1 - b1 and d stays fixed.  Once the first
move of the run succeeds (d > 0), the other q - 1 cannot fail and add
(q - 1)*d to both first blocks at once.  Equal fresh instances, such as
the undo moves of step_refined_full, are applied one move at a time.

IC, IB and IR find the center block from one finger on the bottom stack:
a stack index k and the start vertex p of that block.  A resize or
removal of bottom block 1 moves p by the change in size in front of it (a
finger on a removed block 1 goes to the next), a removal at the center
leaves it on a neighbouring block, and a flip restarts it at the front.
The search starts at the last center block instead of the first block: on
family_parabolic(2, 600, 3) its 900 searches move the finger 600 blocks in
all.  The single steps and the up-moves start it at the first block.
The period-2 runs, such as (P0 F0)^q and (F0 B0)^q, are still taken one
move at a time.

The simplified down-step also makes all meanders one tree, rooted at the
empty meander, which ``_meander_tree`` walks by reverse search (Avis and
Fukuda, 1996).  The parent of a meander is its simplified down-step, and
its children are the results of the up-moves whose own down-step gives
back that tag and exactly the meander, so each meander is reached once.
The case table says which they are.  ~C0(c), c >= 1, from any meander,
the empty one included, gives (c, a1, ...)/(c, b1, ...), which steps
down by C0(c).  ~B0 gives (2a1, a2, ...)/(a1, b1, ...), whose down-step
is B0 since 2a1 = 2b1'.  ~R0, defined when a1 > b1, gives (2a1-b1, a2,
...)/(a1, b2, ...), where b1' < a1' < 2b1', so R0.  ~P0, defined when
there are two top blocks, gives (a1+2a2, a3, ...)/(a2, b1, ...), where
a1' > 2b1', so P0.  Each steps back down to exactly the meander, so it
is a child whenever it is defined.  The flip (bottom, top) steps down by
F0 exactly when a1 > b1; then its own a1' < b1', so no flip is taken
twice in a row.  Three budgets prune exactly, since none of them falls
along a path from the root: the order, which every non-flip up-move
raises; the index, the sum of the ~C0 parameters minus one; and the
block count, to which ~C0 adds two, ~B0 one and the others none.  So
every ancestor of a meander within the budgets is within them too, and
the walk costs a constant number of tuple operations per meander found,
each a copy of the compositions, so O(blocks), against one component walk
per candidate, 4**(n-1) of them at order n.
Each entry carries its depth, the number of up-moves from the empty
meander, which has depth 0 and is not reported; 1/1 has depth 1.  The
walk is depth first, so the parent of an entry at depth d >= 2 is the
last entry before it at depth d - 1, and one list indexed by depth holds
the current root-to-entry path.  Each entry also names the up-move that
makes it from its parent, so a reader of the walk need not work it out.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    WALK_MAX_ORDER,
    Composition,
    MeanderType,
    ParseError,
    PreconditionError,
    _check_budget,
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

# Most moves _expand writes out.  A signature of order n has at most 2n (no
# two flips are adjacent), so every order within the walk budget fits; at it
# `signature --refined --json --verify` of 2|2|...|2/1|2|...|2|1 takes 11 s.
SIGNATURE_MAX_MOVES = 2 * WALK_MAX_ORDER

# Most up-moves generate_frobenius takes.  Each walks all bottom blocks, so
# a call grows about 4x per doubling: 0.96 s at 3 200 moves, 3.2 s at 5 000.
GENERATE_MAX_MOVES = 5_000

# Largest order enumerate_meanders takes.  It streams, but `enumerate 11`
# writes its 4**10 lines in 6-10 s (Python 3.11, shared 2-core host), so the
# 4**19 of order 20 would take weeks, and no larger order could finish.
ENUMERATE_MAX_ORDER = 20

SIMPLIFIED_TAGS = ("F0", "C0", "B0", "R0", "P0")
REFINED_TAGS = ("F", "C", "B", "R", "P", "IC", "IB", "IR")
_PARAMETRIC = {"C0", "C", "IC"}
_UP_TAGS = frozenset("~" + tag for tag in SIMPLIFIED_TAGS + REFINED_TAGS)


@dataclass(frozen=True, slots=True)
class Move:
    """One winding-down move; ``c`` is the elimination parameter."""

    tag: str
    c: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in SIMPLIFIED_TAGS and self.tag not in REFINED_TAGS:
            raise ParseError(f"unknown move tag {self.tag!r}")
        if (self.c is not None) != (self.tag in _PARAMETRIC):
            raise ParseError(f"move {self.tag} parameter mismatch: {self.c!r}")
        if self.c is not None and (type(self.c) is not int or self.c < 1):
            raise ParseError(f"move parameter must be positive: {self.c}")

    def __str__(self) -> str:
        return self.tag if self.c is None else f"{self.tag}({self.c})"


@dataclass(frozen=True, slots=True)
class UpMove:
    """One winding-up move.

    ``c`` is the size parameter of ~C0/~C/~IC.  ``block`` is the 1-based
    bottom-block index targeted by ~IB (the block the new block is created
    in front of) and, optionally, by ~IR (the block to expand; when omitted
    it defaults to the block containing the center of the first top block).
    Both are checked when the move is built, by the rules parse_up_moves
    reads text with, so every UpMove prints text that reads back.
    """

    tag: str
    c: int | None = None
    block: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _UP_TAGS:
            raise ParseError(f"unknown up-move {self.tag!r}")
        if (self.c is not None) != (self.tag[1:] in _PARAMETRIC):
            raise ParseError(f"up-move {self.tag} parameter mismatch: {self.c!r}")
        if self.c is not None and (type(self.c) is not int or self.c < 1):
            raise ParseError(f"up-move parameter must be positive: {self.c}")
        # a block is needed on ~IB, allowed on ~IR and refused elsewhere
        if (self.block is not None) != (self.tag == "~IB") and self.tag != "~IR":
            raise ParseError(f"up-move {self.tag} block mismatch: {self.block!r}")
        if self.block is not None and (type(self.block) is not int or self.block < 1):
            raise ParseError(f"up-move block index must be positive: {self.block}")

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
# Their inverses are shared too, except ~IB and ~IR, which name a block.
_UP_MOVES = {"~" + tag: UpMove("~" + tag) for tag in _MOVES if tag not in ("IB", "IR")}


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


# The one-move runs of the moves without a parameter.
_ONCE = {tag: (move, 1) for tag, move in _MOVES.items()}


def _sides(top: Composition, bottom: Composition) -> list[list[int]]:
    """The pair [top, bottom] of stacks that holds the meander top/bottom."""
    return [list(reversed(top)), list(reversed(bottom))]


def _meander(sides: list[list[int]]) -> MeanderType:
    """The meander held by the pair of stacks sides."""
    return MeanderType(sides[0][::-1], sides[1][::-1])


# A raw step changes the pair sides = [top, bottom] in place and returns
# the run it took, (move, count): a run of count equal moves, at most
# `most`, where the run has a closed form (R0, R, IR), and one move
# otherwise.  A flip reverses sides.  finger = [k, p] is a finger on the
# bottom stack: a stack index k and the start vertex p of that block.  The
# refined step searches the center from it and keeps it valid; the
# simplified step, which never searches, ignores it.
def _step_simplified_raw(
    sides: list[list[int]], finger: list[int], most: int
) -> tuple[Move, int]:
    top, bottom = sides
    a1 = top[-1]
    b1 = bottom[-1]
    if a1 < b1:
        sides.reverse()
        return _ONCE["F0"]
    if a1 == b1:
        top.pop()
        bottom.pop()
        return Move("C0", a1), 1
    if a1 == 2 * b1:
        top[-1] = b1
        bottom.pop()
        return _ONCE["B0"]
    if a1 < 2 * b1:
        d = a1 - b1
        q = (b1 - 1) // d
        if q > most:
            q = most
        top[-1] = b1 - (q - 1) * d
        bottom[-1] = b1 - q * d
        return _MOVES["R0"], q
    top[-1] = b1
    top.append(a1 - 2 * b1)
    bottom.pop()
    return _ONCE["P0"]


def _front(sides: list[list[int]]) -> list[int]:
    """A finger on the first bottom block."""
    return [len(sides[1]) - 1, 1]


def _center_block(a1: int, bottom: list[int], k: int, p: int) -> tuple[int, int, int]:
    """(k, p, q): the first bottom block, at stack index k, whose span
    p..q reaches the center of the first top block, searched from the
    block at stack index k, which starts at vertex p.

    Doubled coordinates: vertex v sits at 2v, the center at a1 + 1.  The
    block contains the center when 2p <= a1 + 1; otherwise a1 is even and
    the center is the gap after the block at k + 1, which ends at a1/2.
    """
    while 2 * (p - 1) > a1:
        k += 1
        p -= bottom[k]
    while True:
        q = p + bottom[k] - 1
        if 2 * q > a1:
            return k, p, q
        k -= 1
        p = q + 1


# The renamed one-move runs of B0, R0 and P0; an R0^q run becomes R^q.
_REFINED = {"B0": _ONCE["B"], "R0": _ONCE["R"], "P0": _ONCE["P"]}


def _step_refined_raw(
    sides: list[list[int]], finger: list[int], most: int
) -> tuple[Move, int]:
    top, bottom = sides
    a1 = top[-1]
    b1 = bottom[-1]
    if a1 < b1:
        # the old top is the new bottom; the finger starts at its front
        sides.reverse()
        finger[0] = len(top) - 1
        finger[1] = 1
        return _ONCE["F"]
    if a1 > 2 * b1:
        # the bottom block around the center of A1 decides; it is never the
        # first block, which ends at b1 < a1/2.  IB and IR leave the finger
        # on the block that their up-move targets.
        k, p, q = _center_block(a1, bottom, finger[0], finger[1])
        finger[0] = k
        if 2 * p > a1 + 1:
            # the center is a gap between bottom blocks: remove the block
            # ending at a1/2, which ~IB reinserts in front of the block at k
            x = bottom.pop(k + 1)
            finger[1] = p - x
            top[-1] = a1 - x
            return _ONCE["IB"]
        bi = bottom[k]
        if p + q == a1 + 1:
            del bottom[k]
            finger[1] = p - bottom[k]
            top[-1] = a1 - bi
            return Move("IC", bi), 1
        finger[1] = p
        r = min(a1 + 1 - 2 * p, 2 * q - a1 - 1)
        delta = bi - r - 1
        if a1 - delta >= 1:
            # each IR lowers a1 and the near distance r by delta and keeps
            # block k the center block; the run ends before r < 0 or P
            q = 1 + min(r // delta, (a1 - 1) // delta - 1)
            if q > most:
                q = most
            top[-1] = a1 - q * delta
            bottom[k] = r - (q - 1) * delta + 1
            return _MOVES["IR"], q
        # the center block extends too far past A1 for the IR rewrite: P
    # C, B, R and P are the simplified moves, renamed.  Each removes or
    # resizes bottom block 1: a finger behind it moves by the change in size
    # in front of it, and a finger on it (p = 1) stays on the first block.
    n = len(bottom)
    move, q = _step_simplified_raw(sides, finger, most)
    if finger[0] < n - 1:
        finger[1] += (bottom[-1] if len(bottom) == n else 0) - b1
    elif len(bottom) < n:
        finger[0] = n - 2
    if move.c is None:
        run = _REFINED[move.tag]
        return run if q == 1 else (run[0], q)
    return Move("C", move.c), 1


def _step(m: MeanderType, step_raw) -> tuple[Move, MeanderType, UpMove]:
    if m.n == 0:
        raise PreconditionError("cannot wind down the empty meander")
    sides = _sides(m.top, m.bottom)
    finger = _front(sides)
    move, _ = step_raw(sides, finger, 1)
    tag = "~" + move.tag
    # ~C and ~IC take the size, ~IB and ~IR the block under the finger
    block = None if move.c else len(sides[1]) - finger[0]
    return move, _meander(sides), _UP_MOVES.get(tag) or UpMove(tag, move.c, block)


def _reduce(top: Composition, bottom: Composition, step_raw) -> list[tuple[Move, int]]:
    """Apply step_raw until the meander is empty; the runs (move, count)
    taken.  Every run is shorter than the order, so capping runs at the
    order takes each of them whole."""
    if not top:
        raise PreconditionError("the empty meander has the empty signature")
    most = sum(top)
    sides = _sides(top, bottom)
    finger = _front(sides)
    runs: list[tuple[Move, int]] = []
    append = runs.append
    while sides[0]:
        append(step_raw(sides, finger, most))
    return runs


def _expand(runs: list[tuple[Move, int]]) -> list[Move]:
    """The signature: each run written out as count equal moves."""
    _check_budget("move count", sum(q for _, q in runs), SIGNATURE_MAX_MOVES, "signature")
    sig: list[Move] = []
    append = sig.append
    for move, q in runs:
        if q == 1:
            append(move)
        else:
            sig += [move] * q
    return sig


def step_simplified(m: MeanderType) -> tuple[Move, MeanderType]:
    """One simplified winding-down move; the case is forced by (a1, b1)."""
    move, result, _ = _step(m, _step_simplified_raw)
    return move, result


def signature_simplified(m: MeanderType) -> list[Move]:
    """Reduce m to the empty meander; the unique simplified signature."""
    return _expand(_reduce(m.top, m.bottom, _step_simplified_raw))


def step_refined(m: MeanderType) -> tuple[Move, MeanderType]:
    """One refined winding-down move; see the module docstring for cases."""
    move, result, _ = _step(m, _step_refined_raw)
    return move, result


def step_refined_full(m: MeanderType) -> RefinedStep:
    """Like step_refined, also returning the exact inverting up-move."""
    return RefinedStep(*_step(m, _step_refined_raw))


def signature_refined(m: MeanderType) -> list[Move]:
    """Reduce m to the empty meander over the refined alphabet."""
    return _expand(_reduce(m.top, m.bottom, _step_refined_raw))


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
    return PlaneHomotopyType.from_parameters(_parameters(m))


def _parameters(m: MeanderType) -> list[int]:
    """The elimination parameters of the simplified signature, read from
    its runs without expanding them: an elimination is always a run of one.
    Their sum minus one is the index, at a cost that does not grow with
    the order."""
    runs = _reduce(m.top, m.bottom, _step_simplified_raw)
    return [move.c for move, _ in runs if move.c is not None]


# ---------------------------------------------------------------------------
# Winding up
# ---------------------------------------------------------------------------


def _apply_up_raw(
    tag: str, c: int | None, block: int | None, sides: list[list[int]]
) -> None:
    """Apply one up-move to the pair sides = [top, bottom] of stacks in
    place; raises PreconditionError.  A flip reverses sides.  tag, c and
    block come from an UpMove, checked when it was built, or from
    _valid_up_moves.
    """
    top, bottom = sides
    if tag in ("~C", "~C0"):
        top.append(c)
        bottom.append(c)
        return
    if tag in ("~F", "~F0"):
        if not top:
            raise PreconditionError("cannot flip the empty meander")
        sides.reverse()
        return
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
        if a1 % 2:
            raise PreconditionError("~IC requires an even first top block")
        k, p, _ = _center_block(a1, bottom, len(bottom) - 1, 1)
        if 2 * p <= a1 + 1:
            raise PreconditionError(
                "~IC requires the vertex a1/2 to end a bottom block"
            )
        top[-1] = a1 + c
        bottom.insert(k + 1, c)
    elif tag == "~IB":
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
            k, p, _ = _center_block(a1, bottom, len(bottom) - 1, 1)
            if 2 * p > a1 + 1:
                raise PreconditionError(
                    "~IR: no bottom block contains the center of the first top block"
                )
        elif 1 <= block <= len(bottom):
            k = len(bottom) - block
            p = 1 + sum(bottom[k + 1 :])
        else:
            raise PreconditionError(f"~IR block index {block} out of range")
        bj = bottom[k]
        delta = abs(a1 + 2 - 2 * p - bj)
        if delta == 0:
            raise PreconditionError("~IR: target block would be centered (use ~IC)")
        # every other block is undone by IR; see _valid_up_moves
        if k == len(bottom) - 1:
            raise PreconditionError(
                "~IR: expanding this block does not invert a rotation contraction"
            )
        top[-1] = a1 + delta
        bottom[k] = bj + delta


def apply_up_move(move: UpMove, m: MeanderType) -> MeanderType:
    """Apply one up-move to a meander (the empty meander is MeanderType((), ()))."""
    sides = _sides(m.top, m.bottom)
    _apply_up_raw(move.tag, move.c, move.block, sides)
    return _meander(sides)


def wind_up(seq: Iterable[UpMove]) -> MeanderType:
    """Build a meander from the empty meander by a sequence of up-moves.

    The first move must be a component creation.  Each move's precondition
    is checked at application time; violations raise WindUpError carrying
    the 1-based step index.

    A run of one ~R0 or ~R instance repeated, as hat_reversed writes an
    R0^q run, costs one move: once its first move succeeds, the rest
    cannot fail and are applied together in closed form (module
    docstring).  Every other move, and each of equal fresh instances, is
    applied on its own.
    """
    sides = _sides((), ())
    step = 0
    last = None  # the move last applied
    moves = iter(seq)
    for move in moves:
        step += 1
        if move is last and move.tag in ("~R", "~R0"):
            # the other moves of the run each add d = a1 - b1 to both first blocks
            q = 1
            for move in moves:
                step += 1
                if move is not last:
                    break
                q += 1
            else:
                move = None
            top, bottom = sides
            d = q * (top[-1] - bottom[-1])
            top[-1] += d
            bottom[-1] += d
            if move is None:
                break
        if step == 1 and move.tag not in ("~C", "~C0"):
            raise WindUpError(step, move, "the first move must create a component")
        try:
            _apply_up_raw(move.tag, move.c, move.block, sides)
        except PreconditionError as exc:
            raise WindUpError(step, move, str(exc)) from exc
        last = move
    if step == 0:
        raise WindUpError(0, None, "empty up-move sequence")
    return _meander(sides)


# The shared inverse of each simplified move without a parameter.
_HATS = {tag: _UP_MOVES["~" + tag] for tag in SIMPLIFIED_TAGS if tag != "C0"}


def hat_reversed(sig: Sequence[Move]) -> list[UpMove]:
    """Reverse a simplified signature into the up-sequence that rebuilds it.

    Each move instance is looked up once, and its repeats, such as the
    shared move of an R0^q run, get the same up-move, which wind_up then
    takes as one run.
    """
    out = []
    append = out.append
    last = up = None
    for mv in reversed(sig):
        if mv is not last:
            last = mv
            up = _HATS.get(mv.tag)
            if up is None:
                if mv.tag != "C0":
                    raise PreconditionError(
                        f"hat_reversed takes a simplified signature, got {mv.tag}"
                    )
                up = UpMove("~C0", mv.c)
        append(up)
    return out


# ---------------------------------------------------------------------------
# Enumeration and random construction
# ---------------------------------------------------------------------------


def enumerate_meanders(n: int) -> Iterator[MeanderType]:
    """All 4**(n-1) meanders of order n, lexicographic, top-major; n runs
    from 1 to ENUMERATE_MAX_ORDER."""
    if type(n) is not int or n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    _check_budget("order", n, ENUMERATE_MAX_ORDER, "enumerate")
    for top in _compositions(n):
        for bottom in _compositions(n):
            yield MeanderType(top, bottom)


def _meander_tree(
    n_max: int, max_index: int, max_blocks: int
) -> Iterator[tuple[Composition, Composition, int, int, str]]:
    """(top, bottom, index, depth, tag) of every non-empty meander within
    the three budgets, once each, depth first; tag names the up-move that
    makes it from its parent.  See the module docstring for the walk."""
    # each entry carries its order, its index, the blocks it may add, its
    # depth and its tag
    stack = [((), (), 0, -1, max_blocks, 0, None)]
    push = stack.append
    while stack:
        top, bottom, n, index, room, depth, tag = stack.pop()
        d = depth + 1
        if top:
            yield top, bottom, index, depth, tag
            # the ~F0, ~B0, ~R0 and ~P0 children, each kept within the budgets
            a1 = top[0]
            b1 = bottom[0]
            if a1 > b1:
                push((bottom, top, n, index, room, d, "~F0"))
            if n + a1 <= n_max and room:
                push(((2 * a1,) + top[1:], (a1,) + bottom, n + a1, index, room - 1, d, "~B0"))
            if a1 > b1 and n + a1 - b1 <= n_max:
                push(((2 * a1 - b1,) + top[1:], (a1,) + bottom[1:],
                      n + a1 - b1, index, room, d, "~R0"))
            if len(top) > 1 and n + top[1] <= n_max:
                a2 = top[1]
                push(((a1 + 2 * a2,) + top[2:], (a2,) + bottom, n + a2, index, room, d, "~P0"))
        if index < max_index and room > 1:
            for c in range(1, min(n_max - n, max_index - index) + 1):
                push(((c,) + top, (c,) + bottom, n + c, index + c, room - 2, d, "~C0"))


def _valid_up_moves(sides: list[list[int]]) -> list[tuple[str, None, int | None]]:
    """(tag, c, block) for _apply_up_raw of each Frobenius-preserving up-move.

    One pass over the bottom blocks, with p the start vertex of block j,
    finds the ~IB and the ~IR targets.  ~IR expands block j by delta =
    |a1 + 2 - 2p - b_j|, which puts the near end of the expanded block at
    the doubled distance b_j - 1 from the new center: its left end when
    a1 + 2 - 2p - b_j < 0, its right end otherwise.  The far end is 2*delta
    farther, so the refined step of the result is IR on block j with
    s = b_j, giving back a1 and b_j, exactly when delta > 0 and j > 1: the
    new center lies at or right of p > b1, so a1 + delta > 2*b1.
    """
    top, bottom = sides
    a1 = top[-1]
    b1 = bottom[-1]
    out = [("~F", None, None), ("~B", None, None)]
    if a1 > b1:
        out.append(("~R", None, None))
    ir = []
    p = 1 + b1
    for j in range(2, len(bottom) + 1):
        bj = bottom[-j]
        if 2 * p <= a1 + 1:
            out.append(("~IB", None, j))
        if a1 + 2 - 2 * p != bj:
            ir.append(("~IR", None, j))
        p += bj
    return out + ir


def generate_frobenius(moves: int, seed: int) -> MeanderType:
    """Random Frobenius meander: ~C(1) followed by `moves` random up-moves.

    Draws uniformly from the applicable Frobenius-preserving moves
    (flip, block/rotation expansion, and the internal creations with every
    valid target block).  Deterministic for a given seed.  moves runs from
    0 to GENERATE_MAX_MOVES.
    """
    if type(moves) is not int or moves < 0:
        raise PreconditionError("moves must be >= 0")
    _check_budget("move count", moves, GENERATE_MAX_MOVES, "generate")
    rng = random.Random(seed)
    sides = _sides((1,), (1,))
    for _ in range(moves):
        _apply_up_raw(*rng.choice(_valid_up_moves(sides)), sides)
    return _meander(sides)


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


def parse_up_moves(text: str) -> list[UpMove]:
    out = []
    for token in text.split():
        tag, param = _match_move(token, up=True)
        if tag[1:] in _PARAMETRIC:
            if param is None:
                raise ParseError(f"{tag} needs a size parameter: {token!r}")
            out.append(UpMove(tag, c=param))
        elif tag in _UP_MOVES:
            if param is not None:
                raise ParseError(f"up-move {tag} takes no parameter: {token!r}")
            out.append(_UP_MOVES[tag])
        elif param is None and tag == "~IB":
            raise ParseError(f"{tag} needs a block index: {token!r}")
        else:
            out.append(UpMove(tag, block=param))
    return out
