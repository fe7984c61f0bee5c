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
in O(1), a run of k moves slices k blocks at once, and a flip reverses the
pair in place.  The public functions take and return tuple-based
``MeanderType`` values and convert at their boundary.

The one reduction driver, ``_reduce``, produces runs: (move, count), count
equal moves, or (pair, count) for an alternation of the two moves of pair.
Where a run has a closed form it is taken at once, one division of a
Euclid-like contraction (Dergachev and Kirillov, 2000; Coll et al.,
"Meander graphs and Frobenius seaweed Lie algebras") or one slice of each
stack, so a signature costs per run, not per move:

* R0 and R (b1 < a1 < 2b1) send a1 | b1 to b1 | b1 - d, d = a1 - b1, so d
  stays fixed, and the next move is again a rotation while the new bottom
  block stays above d.  From b1 the run has q = (b1 - 1) // d moves and
  ends at bottom x = b1 - q*d, top x + d.
* P0 (a1 > 2b1) puts b1 behind the first top block and leaves a1 - 2b1 in
  front of it, and the next move is again P0 while a1 - 2b1 > 2b2.  So
  P0^k takes off twice the first k bottom blocks, k the number of their
  prefix sums S_i = b1 + ... + b_i with 2S_i < a1, ends at top
  a1 - 2S_k, b_k, ..., b1, a2, ... and bottom b_(k+1), ..., and is one
  slice of each stack.  The refined system takes P only when IR would
  leave a1 < 1, and the next move may be internal again, so its P is one
  move.
* F0 B0 from a1 = x, b1 = 2x carries x to the other side: the flip puts
  2x over x, and B0 turns that 2x into x and removes the x below.  The
  next pair follows while the next block on the other side is 2x too, so
  the run meets bottom[-1], top[-2], bottom[-2], top[-3], ... of the old
  stacks.  (F0 B0)^j removes the first ceil(j/2) old bottom blocks and
  floor(j/2) + 1 old top blocks, puts x in front of the old bottom (j odd,
  the stacks flipped) or the old top (j even), and has 2j moves.  The
  refined (F B)^j is the same.  With x = 1, 2j can exceed the order n, so
  _reduce caps runs at 2n moves, the most a signature of order n has.
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
writes a run as references to one move instance, or to the two of an
alternation, hat_reversed maps each instance once and repeats its shared
up-move, and wind_up recognises the runs by identity alone.  Equal fresh
instances, such as the undo moves of step_refined_full, are applied one
move at a time.

* ~R0 and ~R send a1 | b1 to 2a1 - b1 | a1, so both first blocks grow by
  d = a1 - b1 and d stays fixed.  Once the first move of the run succeeds
  (d > 0), the other q - 1 cannot fail and add (q - 1)*d to both first
  blocks at once.
* ~P0 and ~P send a1 | a2 | a3 ... / b1 ... to a1 + 2a2 | a3 ... /
  a2 | b1 ...: k of them move the k top blocks after a1 to the front of
  the bottom, the last of them first, and add twice their sum to a1.
  Only a move that finds one top block fails, so after the first move of
  the run, min(q - 1, blocks - 1) of the others go at once, and the next,
  if any, fails at its own step, as move by move.
* hat_reversed writes (F0 B0)^j as ~B0 ~F0 ... ~B0 ~F0.  From x = a1,
  each ~B0 doubles the first top block and puts x in front of the bottom,
  and each ~F0 flips, so the next ~B0 doubles the x just placed.  Neither
  fails on a non-empty meander, so from the first ~B0 that follows a ~F0
  the q alternating moves, ceil(q/2) of them ~B0, go at once: the first
  top block becomes 2x, ceil(q/2) - 1 more blocks 2x go to the bottom and
  the top in turn, x goes in front of the side the last ~B0 put it on,
  and the stacks end flipped when floor(q/2) is odd.

IC, IB and IR find the center block from one finger on the bottom stack:
a stack index k and the start vertex p of that block.  A resize or
removal of bottom block 1 moves p by the change in size in front of it (a
finger on a removed block 1 goes to the next), a removal at the center
leaves it on a neighbouring block, and a flip or an (F B)^j run restarts
it at the front.  The search starts at the last center block instead of
the first block: on family_parabolic(2, 600, 3) its 900 searches move the
finger 600 blocks in all.  The single steps and the up-moves start it at
the first block.  Runs without a closed form still take one move each:
the period-3 (IR IB IB)^q of family_parabolic(2, k, b)'s refined
signature, and the longer periods, such as the (F0 P0 F0 B0 B0)^q of
family_parabolic(4, k, 1), that the families with a >= 4 reach after
their P0^k run.

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


# A run is (move, count): count equal moves, or for an alternation the
# pair (flip, block) of moves and count, even, the moves in it.
_Run = tuple[Move | tuple[Move, Move], int]


# The raw steps name their moves from an alphabet: the one-move run of
# each simplified case, the pair of the alternation, and the tag of C0, in
# either system.
def _alphabet(f: str, c: str, b: str, r: str, p: str) -> dict:
    flip, block = _MOVES[f], _MOVES[b]
    return {
        "F0": (flip, 1),
        "B0": (block, 1),
        "R0": (_MOVES[r], 1),
        "P0": (_MOVES[p], 1),
        "F0 B0": (flip, block),
        "C0": c,
    }


_SIMPLIFIED = _alphabet("F0", "C0", "B0", "R0", "P0")
_REFINED = _alphabet("F", "C", "B", "R", "P")
_IB = (_MOVES["IB"], 1)


def _sides(top: Composition, bottom: Composition) -> list[list[int]]:
    """The pair [top, bottom] of stacks that holds the meander top/bottom."""
    return [[*top[::-1]], [*bottom[::-1]]]


def _meander(sides: list[list[int]]) -> MeanderType:
    """The meander held by the pair of stacks sides."""
    return MeanderType(sides[0][::-1], sides[1][::-1])


# A raw step changes the pair sides = [top, bottom] in place and returns
# the run it took, at most `most` moves long: a whole run where it has a
# closed form (P0, R0, IR and the alternation F0 B0), and one move
# otherwise.  A flip reverses sides.  finger = [k, p] is a finger on the
# bottom stack: a stack index k and the start vertex p of that block.  The
# refined step searches the center from it and keeps it valid; the
# simplified step, which never searches, ignores it.  moves is the
# alphabet the step names its moves in.
def _step_simplified_raw(
    sides: list[list[int]], finger: list[int], most: int, moves: dict = _SIMPLIFIED
) -> _Run:
    top, bottom = sides
    a1 = top[-1]
    b1 = bottom[-1]
    if a1 < b1:
        sides.reverse()
        if b1 != 2 * a1 or most < 2:
            return moves["F0"]
        # (F0 B0)^j: each pair carries x = a1 to the other side, where it
        # replaces the first block, 2x, and the next pair follows while the
        # next block there is 2x too.  Those blocks are bottom[-1], top[-2],
        # bottom[-2], top[-3], ... of the old stacks, and the equal sums
        # keep each in range.
        most //= 2
        old = (bottom, top)
        j = 1
        while j < most and old[j % 2][-1 - (j + 1) // 2] == b1:
            j += 1
        del bottom[-((j + 1) // 2) :]
        del top[-1 - j // 2 :]
        if j % 2:
            bottom.append(a1)
        else:
            top.append(a1)
            sides.reverse()
        return moves["F0 B0"], 2 * j
    if a1 == b1:
        top.pop()
        bottom.pop()
        return Move(moves["C0"], a1), 1
    d = a1 - b1
    if d == b1:
        top[-1] = b1
        bottom.pop()
        return moves["B0"]
    if d < b1:
        q = (b1 - 1) // d
        if q > most:
            q = most
        top[-1] = b1 - (q - 1) * d
        bottom[-1] = b1 - q * d
        return moves["R0"][0], q
    # P0^k: each P0 puts the first bottom block behind the first top block
    # and takes twice its size off a1, while a1 > 2*b1; the equal sums keep
    # the next bottom block in range
    a1 = d - b1
    if a1 <= 2 * bottom[-2] or most < 2:
        top[-1] = b1
        top.append(a1)
        bottom.pop()
        return moves["P0"]
    k = 2
    a1 -= 2 * bottom[-2]
    while k < most and a1 > 2 * bottom[-1 - k]:
        k += 1
        a1 -= 2 * bottom[-k]
    top[-1:] = bottom[: -1 - k : -1]
    top.append(a1)
    del bottom[-k:]
    return moves["P0"][0], k


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


def _step_refined_raw(sides: list[list[int]], finger: list[int], most: int) -> _Run:
    top, bottom = sides
    a1 = top[-1]
    b1 = bottom[-1]
    if a1 < b1:
        # F, or the alternation (F B)^j; the finger starts at the front of
        # the new bottom
        run = _step_simplified_raw(sides, finger, most, _REFINED)
        finger[0] = len(sides[1]) - 1
        finger[1] = 1
        return run
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
            return _IB
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
        # the center block extends too far past A1 for the IR rewrite: one
        # P, since the next move may be internal again
        most = 1
    # C, B, R and P are the simplified moves, named in this alphabet.  Each
    # removes or resizes bottom block 1: a finger behind it moves by the
    # change in size in front of it, and a finger on it (p = 1) stays on
    # the first block.
    n = len(bottom)
    run = _step_simplified_raw(sides, finger, most, _REFINED)
    if finger[0] < n - 1:
        finger[1] += (bottom[-1] if len(bottom) == n else 0) - b1
    elif len(bottom) < n:
        finger[0] = n - 2
    return run


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


def _reduce(top: Composition, bottom: Composition, step_raw) -> list[_Run]:
    """Apply step_raw until the meander is empty; the runs taken.  The cap
    counts moves.  A signature of order n has at most 2n moves (no two
    flips are adjacent), and an (F0 B0)^j run can be longer than n, so
    capping runs at 2n moves takes each of them whole."""
    if not top:
        raise PreconditionError("the empty meander has the empty signature")
    most = 2 * sum(top)
    sides = _sides(top, bottom)
    finger = _front(sides)
    runs: list[_Run] = []
    append = runs.append
    while sides[0]:
        append(step_raw(sides, finger, most))
    return runs


def _expand(runs: list[_Run]) -> list[Move]:
    """The signature: each run written out, as count references to its
    move or count/2 to the pair of an alternation."""
    _check_budget("move count", sum([q for _, q in runs]), SIGNATURE_MAX_MOVES, "signature")
    sig: list[Move] = []
    append = sig.append
    for move, q in runs:
        if q == 1:
            append(move)
        elif move.__class__ is tuple:
            sig += move * (q // 2)
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
    return [move.c for move, q in runs if q == 1 and move.c is not None]


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


def _apply_up_run(tag: str, q: int, sides: list[list[int]]) -> int:
    """Apply q moves of a run in closed form to sides in place: q repeats
    of ~R0/~R or ~P0/~P, or q alternating moves ~B0 ~F0 ~B0 ... (~B ~F ...)
    from a ~B0 or ~B.  The moves applied: all q, except that a ~P run
    stops where one top block is left, before the move that would fail.
    Only a ~P can fail here: the run starts on a non-empty meander, after
    a move of its own kind succeeded."""
    top, bottom = sides
    if tag in ("~R", "~R0"):
        # each ~R adds d = a1 - b1 to both first blocks
        d = q * (top[-1] - bottom[-1])
        top[-1] += d
        bottom[-1] += d
        return q
    if tag in ("~P", "~P0"):
        # the k top blocks after a1 go to the front of the bottom, the
        # last of them first, and a1 grows by twice their sum
        k = min(q, len(top) - 1)
        moved = top[-1 - k : -1]
        bottom += moved[::-1]
        a1 = top[-1] + 2 * sum(moved)
        del top[-1 - k :]
        top.append(a1)
        return k
    # each ~B turns x = a1 into 2x and puts x in front of the other side,
    # where the next ~B, after a flip, turns it into 2x again
    x = top[-1]
    blocks = (q + 1) // 2
    top[-1] = 2 * x
    top += [2 * x] * ((blocks - 1) // 2)
    bottom += [2 * x] * (blocks // 2)
    (bottom if blocks % 2 else top).append(x)
    if q // 2 % 2:
        sides.reverse()
    return q


# The shared up-moves that wind_up takes in runs: a repeat of one, or the
# alternation ~B0 ~F0 ~B0 ... (~B ~F ~B ...) that hat_reversed writes for
# an (F0 B0)^j run.
_REPEATED = ("~R", "~R0", "~P", "~P0")
_UP_F0, _UP_B0, _UP_F, _UP_B = (_UP_MOVES[tag] for tag in ("~F0", "~B0", "~F", "~B"))


def wind_up(seq: Iterable[UpMove]) -> MeanderType:
    """Build a meander from the empty meander by a sequence of up-moves.

    The first move must be a component creation.  Each move's precondition
    is checked at application time; violations raise WindUpError carrying
    the 1-based step index.

    A run of shared up-moves, as hat_reversed writes the runs of a
    signature, costs one closed-form update (module docstring): one ~R0,
    ~R, ~P0 or ~P instance repeated, after its first move, and an
    alternation of the shared ~B0 and ~F0 (or ~B and ~F) from a ~B0 that
    follows a ~F0.  A ~P run that finds one top block fails at the step of
    that move, as move by move.  Every other move, and each of equal fresh
    instances, is applied on its own.
    """
    moves = iter(seq)
    last = next(moves, None)  # the move last applied
    if last is None:
        raise WindUpError(0, None, "empty up-move sequence")
    if last.tag not in ("~C", "~C0"):
        raise WindUpError(1, last, "the first move must create a component")
    sides = _sides((), ())
    _apply_up_raw(last.tag, last.c, None, sides)
    step = 1
    f0, b0, f, b = _UP_F0, _UP_B0, _UP_F, _UP_B
    for move in moves:
        step += 1
        if (
            move is last
            and move.tag in _REPEATED
            or move is b0
            and last is f0
            or move is b
            and last is f
        ):
            run, first, q = move, step, 1
            if move is last:
                for move in moves:
                    step += 1
                    if move is not run:
                        break
                    q += 1
                else:
                    move = None
            else:
                # the moves go on alternating last and run
                expected, then = last, run
                for move in moves:
                    step += 1
                    if move is not expected:
                        break
                    q += 1
                    expected, then = then, expected
                else:
                    move = None
            done = _apply_up_run(run.tag, q, sides)
            if done < q:
                # the next ~P finds one top block: it fails below
                move, step = run, first + done
            elif move is None:
                break
        try:
            _apply_up_raw(move.tag, move.c, move.block, sides)
        except PreconditionError as exc:
            raise WindUpError(step, move, str(exc)) from exc
        last = move
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
