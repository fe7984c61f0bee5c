"""Closed-form index formulas and infinite Frobenius families.

Small block counts admit gcd formulas for the index:

* two top blocks over one:        index(a|b / a+b)       = gcd(a, b) - 1
* four blocks, either shape:      index(a|b / c|d)       = gcd(a+b, b+c) - 1
                                  index(d / a|b|c)       = gcd(a+b, b+c) - 1

and two constructors yield index-zero meanders of unbounded size and block
count: for even a coprime to b,

* a|a|...|a|b over the full sum                 (k copies of a on top)
* a|a|...|a|b over (b+ka)|a|a|...|a             (biparabolic variant)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Literal

from .core import WALK_MAX_ORDER, MeanderType, PreconditionError, _check_budget

__all__ = [
    "FourBlockType",
    "index_two_block",
    "index_four_block",
    "family_parabolic",
    "family_biparabolic",
]

Shape = Literal["top-two", "bottom-three"]


@dataclass(frozen=True)
class FourBlockType:
    """A four-block meander: a|b over c|d, or d over a|b|c."""

    shape: Shape
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for name in "abcd":
            if getattr(self, name) < 1:
                raise PreconditionError(f"block {name} must be positive")
        if self.shape == "top-two":
            if self.a + self.b != self.c + self.d:
                raise PreconditionError("top-two shape needs a+b == c+d")
        elif self.shape == "bottom-three":
            if self.d != self.a + self.b + self.c:
                raise PreconditionError("bottom-three shape needs d == a+b+c")
        else:
            raise PreconditionError(f"unknown shape {self.shape!r}")

    def to_meander(self) -> MeanderType:
        if self.shape == "top-two":
            return MeanderType((self.a, self.b), (self.c, self.d))
        return MeanderType((self.d,), (self.a, self.b, self.c))


def index_two_block(a: int, b: int) -> int:
    """Index of a|b over a+b."""
    if a < 1 or b < 1:
        raise PreconditionError("block sizes must be positive")
    return gcd(a, b) - 1


def index_four_block(t: FourBlockType) -> int:
    """Index of a four-block meander; Frobenius iff gcd(a+b, b+c) == 1."""
    return gcd(t.a + t.b, t.b + t.c) - 1


def family_parabolic(a: int, k: int, b: int) -> MeanderType:
    """k copies of a then b on top, their sum below; Frobenius by construction.

    Requires a even, k >= 1 and gcd(a, b) == 1, checked in that order.  It
    is family_biparabolic with no copies of a below, which checks b and
    the k + 1 top blocks against core.WALK_MAX_ORDER before any tuple is
    built: a meander with more blocks than that is over the walk budget too.
    """
    if a < 2 or a % 2:
        raise PreconditionError(f"a must be even and >= 2, got {a}")
    if type(k) is not int or k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    return family_biparabolic(a, b, k, 0)


def family_biparabolic(a: int, b: int, k: int, bottom_copies: int) -> MeanderType:
    """Top a|...|a|b over (b+ka)|a|...|a; Frobenius by construction.

    The top copy count is k + bottom_copies, forced by the equal-sum
    constraint.  The top blocks, the larger side, are checked against
    core.WALK_MAX_ORDER before any tuple is built.
    """
    if a < 2 or a % 2:
        raise PreconditionError(f"a must be even and >= 2, got {a}")
    if type(b) is not int or b < 1 or gcd(a, b) != 1:
        raise PreconditionError(f"b must be positive with gcd(a, b) == 1, got b={b}")
    if type(k) is not int or k < 0:
        raise PreconditionError(f"k must be >= 0, got {k}")
    if type(bottom_copies) is not int or bottom_copies < 0:
        raise PreconditionError(f"bottom_copies must be >= 0, got {bottom_copies}")
    top_copies = k + bottom_copies
    if top_copies < 1:
        raise PreconditionError("need at least one copy of a on top")
    _check_budget("block count", top_copies + 1, WALK_MAX_ORDER, "walk")
    top = (a,) * top_copies + (b,)
    bottom = (b + k * a,) + (a,) * bottom_copies
    return MeanderType(top, bottom)
