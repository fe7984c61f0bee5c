"""Desk-scale empirical scans.

Three batteries back the open questions around gcd classification and
spectrum shape:

* search_gcd_conditions: exhausts coefficient pairs (alpha, beta) with
  entries bounded by max_coef, looking for a single relatively-prime
  condition gcd(alpha . sizes, beta . sizes) = 1 that separates five-block
  Frobenius meanders from non-Frobenius ones.  Expected outcome at desk
  scale: no survivor.
* scan_unimodality: collects Frobenius spectra whose dimension sequences
  fail (strict) unimodality.  These scans back unproven conjectures, so
  counterexamples are reported, not raised.
* scan_block_measures: checks that the per-block measure multisets of every
  Frobenius meander are symmetric about one half and unbroken.  This one is
  a proven fact, so a counterexample is a bug in this package.

All three take their meanders from the reverse search in winding, pruned
by budgets: the last two take its index-0 slice, the Frobenius meanders
alone, and five_block_meanders, which feeds the gcd search, its five-block
slice.  So each costs in proportion to the meanders it checks rather than
to all 4^(n-1) pairs of order n.

The two Frobenius scans are incremental along that tree, whose walk names
the up-move of each edge.  One switch on that tag, _child, gives the
edge's node, the blocks its up-move makes and the blocks of the parent it
replaces; every other block keeps its measures (see the spectrum module
docstring), and a flip makes and replaces none.  _scan keeps the current
root-to-meander path, one entry per depth, and hands each visit the node
with its made and gone blocks: scan_unimodality grows each spectrum from
its parent's, measuring only those blocks, and scan_block_measures checks
each block once, at the meander that makes it.  The potentials come from
the path too: the kept vertices keep their differences, so _child
recomputes only the first vertices from the parent's list, and a flip,
which negates every potential, is a sign on the same list.  No scan
builds partner arrays or walks a meander.  The tests keep the
whole-meander scans, each meander walked, as the slow routes.

All scans are exhaustive over their stated range and produce reports that
are reproducible bit for bit given the same parameters (wall-clock time is
carried separately and excluded from comparisons).
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from itertools import product
from math import gcd

from .core import (
    Composition,
    ConsistencyError,
    MeanderType,
    ParseError,
    PreconditionError,
    _check_budget,
    _parse_uint,
)
from .spectrum import SpectrumFlags, _count_block, _elements, classify
from .winding import _meander_tree, _parameters

__all__ = [
    "GcdCondition",
    "ScanReport",
    "five_block_meanders",
    "search_gcd_conditions",
    "scan_unimodality",
    "scan_block_measures",
    "load_config",
]


# Most coefficient pairs search_gcd_conditions checks, counted from max_coef
# before any vector is built.  Each pair costs 1.4-3.1 us on one worker
# (Python 3.11, shared 2-core host), so max_coef 5, 3 242 258 600 pairs,
# takes about 2 h at n_max 18, and max_coef 6 (1.7e10 pairs) is refused.
GCD_MAX_PAIRS = 4_000_000_000

# Largest n_max of the two Frobenius scans, checked before the walk.  Time
# grows about 3x per two orders: at 16, 18, 20 and 22, scan_unimodality
# takes 0.7, 2.4, 8.0 and 27 s, and scan_block_measures 0.5, 1.8, 6.1 and
# 21 s (3 660 099 meanders at 22; Python 3.11, shared 2-core host, one run
# each).  The block scan keeps flat memory (16-17 MB); the unimodality
# scan remembers the flags of each distinct spectrum and peaks at 21, 27,
# 41 and 73 MB.
SCAN_MAX_ORDER = 22

# Largest n_max of five_block_meanders, checked before the walk.  It keeps
# every five-block meander, about N^4 of them: at 30, 36 and 40 it takes
# 1.6, 4.5 and 6.1 s and peaks at 76, 142 and 211 MB (770 640 meanders at
# 40; same host).
FIVE_BLOCK_MAX_ORDER = 40


@dataclass(frozen=True)
class GcdCondition:
    """A candidate classifier gcd(alpha . s, beta . s) = 1 on block sizes s."""

    alpha: tuple[int, int, int, int, int]
    beta: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.alpha) != 5 or len(self.beta) != 5:
            raise PreconditionError("coefficient vectors must have 5 entries")
        if not any(self.alpha) and not any(self.beta):
            raise PreconditionError("coefficient vectors cannot both be zero")

    def holds(self, sizes: tuple[int, ...]) -> bool:
        x = sum(a * s for a, s in zip(self.alpha, sizes))
        y = sum(b * s for b, s in zip(self.beta, sizes))
        return gcd(abs(x), abs(y)) == 1


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one scan; `payload()` is the reproducible part."""

    kind: str
    parameters: dict
    survivors: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    checked: int = 0
    elapsed: float = 0.0

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": self.parameters,
            "survivors": self.survivors,
            "counterexamples": self.counterexamples,
            "checked": self.checked,
        }

    def to_json(self) -> str:
        data = dict(self.payload())
        data["elapsed_seconds"] = round(self.elapsed, 3)
        return json.dumps(data, sort_keys=True)


def five_block_meanders(n_max: int) -> tuple[list[MeanderType], list[MeanderType]]:
    """(frobenius, non_frobenius) meanders with exactly five blocks, order <= n_max.

    The reverse search with a five-block budget finds them, and the index
    of each is read from its path.  Each list is sorted by order, then by
    the number of top blocks, then top-major lexicographically.  An n_max
    over FIVE_BLOCK_MAX_ORDER raises PreconditionError before the walk.
    """
    if type(n_max) is not int:
        raise PreconditionError(f"n_max must be an integer, got {n_max!r}")
    _check_budget("order", n_max, FIVE_BLOCK_MAX_ORDER, "five-block")
    frob: list[MeanderType] = []
    nonfrob: list[MeanderType] = []
    for *_, top, bottom, index in sorted(
        (sum(top), len(top), top, bottom, index)
        for top, bottom, index, *_ in _meander_tree(n_max, n_max, 5)
        if len(top) + len(bottom) == 5
    ):
        (frob if index == 0 else nonfrob).append(MeanderType(top, bottom))
    return frob, nonfrob


def _size_vectors(meanders: list[MeanderType]) -> list[tuple[int, ...]]:
    """Distinct block-size vectors, top blocks then bottom blocks."""
    return sorted({m.top + m.bottom for m in meanders})


def _canonical_vectors(max_coef: int) -> list[tuple[int, ...]]:
    """Coefficient vectors with first nonzero entry positive, plus zero."""
    out = []
    for vec in product(range(-max_coef, max_coef + 1), repeat=5):
        first = next((x for x in vec if x), 0)
        if first >= 0:
            out.append(vec)
    return out


def _scan_slice(
    args: tuple[list[tuple[int, ...]], int, int, list[tuple[int, ...]], list[tuple[int, ...]]],
) -> tuple[list[dict], int]:
    """Worker w of k, over the first vectors w, w + k, w + 2k, ...: each
    inner loop runs to the end, so interleaving evens out the slices."""
    vectors, w, k, frob_vecs, non_vecs = args
    # every Frobenius vector must give a coprime pair, and no other may
    checks = ((frob_vecs, True), (non_vecs, False))
    survivors: list[dict] = []
    checked = 0
    for ai in range(w, len(vectors), k):
        alpha = vectors[ai]
        for bi in range(ai, len(vectors)):
            beta = vectors[bi]
            if not any(alpha) and not any(beta):
                continue
            checked += 1
            ok = True
            for vecs, coprime in checks:
                for s in vecs:
                    x = (
                        alpha[0] * s[0] + alpha[1] * s[1] + alpha[2] * s[2]
                        + alpha[3] * s[3] + alpha[4] * s[4]
                    )
                    y = (
                        beta[0] * s[0] + beta[1] * s[1] + beta[2] * s[2]
                        + beta[3] * s[3] + beta[4] * s[4]
                    )
                    if (gcd(x, y) == 1) is not coprime:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                survivors.append({"alpha": list(alpha), "beta": list(beta)})
    return survivors, checked


def search_gcd_conditions(
    max_coef: int,
    sample: list[MeanderType],
    non_sample: list[MeanderType],
    seed: int = 0,
    sample_size: int | None = None,
    workers: int = 1,
) -> ScanReport:
    """Exhaust all bounded coefficient pairs against the two sample sets.

    A condition survives when it evaluates to gcd 1 on every Frobenius
    sample and to gcd != 1 on every non-Frobenius sample.  Sign flips of a
    whole vector and swapping the two vectors do not change the condition,
    so only canonical representatives are enumerated.  When sample_size is
    given, it must be >= 1, and each sample list is reduced to a seeded
    random subsample of at most that many meanders.
    Workers take interleaved slices of the first vectors; the merged result
    does not depend on the worker count.  workers must be >= 1, and at
    most os.cpu_count() processes are started.  More than GCD_MAX_PAIRS
    pairs raise PreconditionError before any vector is built.
    """
    return _search_gcd(max_coef, sample, non_sample, seed, sample_size, workers, recheck=True)


def _search_gcd(max_coef, sample, non_sample, seed, sample_size, workers, recheck) -> ScanReport:
    """search_gcd_conditions, which checks each sample's index only when
    recheck is set: the CLI passes five_block_meanders' split as it comes,
    and the tree walk has already read those indices."""
    if type(max_coef) is not int or max_coef < 1:
        raise PreconditionError("max_coef must be >= 1")
    vectors = ((2 * max_coef + 1) ** 5 + 1) // 2  # canonical, zero included
    _check_budget("pair count", vectors * (vectors + 1) // 2 - 1, GCD_MAX_PAIRS, "gcd")
    if type(workers) is not int or workers < 1:
        raise PreconditionError("workers must be >= 1")
    if sample_size is not None and (type(sample_size) is not int or sample_size < 1):
        raise PreconditionError("sample_size must be >= 1")
    if type(seed) is not int:
        raise PreconditionError(f"seed must be an integer, got {seed!r}")
    if not sample or not non_sample:
        raise PreconditionError("both sample sets must be nonempty")
    for m in sample + non_sample:
        if len(m.top) + len(m.bottom) != 5:
            raise PreconditionError(f"not a five-block meander: {m}")
    if recheck:
        # the index is the sum of the elimination parameters less one
        for m in sample:
            if sum(_parameters(m)) != 1:
                raise PreconditionError(f"sample meander is not Frobenius: {m}")
        for m in non_sample:
            if sum(_parameters(m)) == 1:
                raise PreconditionError(f"non-sample meander is Frobenius: {m}")

    t0 = time.monotonic()
    if sample_size is not None:
        rng = random.Random(seed)
        sample = rng.sample(sample, min(sample_size, len(sample)))
        non_sample = rng.sample(non_sample, min(sample_size, len(non_sample)))
    frob_vecs = _size_vectors(sample)
    non_vecs = _size_vectors(non_sample)
    vectors = _canonical_vectors(max_coef)
    k = min(workers, os.cpu_count() or 1)
    tasks = [(vectors, w, k, frob_vecs, non_vecs) for w in range(k)]
    if k > 1:
        from multiprocessing import Pool

        with Pool(k) as pool:
            parts = pool.map(_scan_slice, tasks)
    else:
        parts = [_scan_slice(tasks[0])]
    survivors = [s for part, _ in parts for s in part]
    checked = sum(c for _, c in parts)
    survivors.sort(key=lambda d: (d["alpha"], d["beta"]))
    return ScanReport(
        kind="gcd-conditions",
        parameters={
            "max_coef": max_coef,
            "frobenius_samples": len(sample),
            "non_frobenius_samples": len(non_sample),
            "distinct_frobenius_vectors": len(frob_vecs),
            "distinct_non_frobenius_vectors": len(non_vecs),
            "seed": seed,
            "sample_size": sample_size,
        },
        survivors=survivors,
        checked=checked,
        elapsed=time.monotonic() - t0,
    )


def _in_scan_order(found: list[tuple[Composition, Composition, dict]]) -> list[dict]:
    """The records of (top, bottom, record) triples, stably sorted by order
    and then lexicographically, top-major: the order of a scan's report."""
    found.sort(key=lambda item: (sum(item[0]), item[0], item[1]))
    return [record for _, _, record in found]


def _child(tag: str, up: tuple | None, top: Composition, bottom: Composition) -> tuple:
    """(node, made, gone) of the edge by which the up-move tag makes the
    meander top/bottom from the node up (None for the empty meander): the
    one switch on the tag.  node is (top, bottom, phi, sign), the
    potential of vertex v being sign * phi[v] up to one constant; only
    differences are read.  made and gone are the blocks the up-move makes
    in node and replaces in up, as (phi, p, q, top) arguments of
    _count_block, top turned where the sign is -1; every other block
    keeps its measures (see the spectrum module docstring).  ~F0 reverses
    every arc: it shares the parent's list, negates the sign and makes no
    block.  In the index-0 slice ~C0 makes only 1/1, two blocks of size 1.
    Every other move makes block 1 of each side and replaces top block 1
    (~B0), top blocks 1 and 2, which it merges (~P0), or top and bottom
    block 1 (~R0); the vertices it hands on keep their differences, so phi
    is the parent's with the first vertices recomputed.  With b = b1 of
    the child: ~B0 and ~P0 put b new vertices in front, each the end of a
    top arc from an old one, and ~R0 puts b slots in front of the vertices
    after the parent's B1 and fills them by a walk over the child's B1."""
    if tag == "~F0":
        return (top, bottom, up[2], -up[3]), (), ()
    if tag == "~C0":
        phi = [None, 0]
        return (top, bottom, phi, 1), ((phi, 1, 1, True), (phi, 1, 1, False)), ()
    up_top, up_bottom, old, sign = up
    turned = sign < 0
    a, b, a1 = top[0], bottom[0], up_top[0]
    gone = [(old, 1, a1, not turned)]
    if tag != "~R0":
        if tag == "~P0":
            gone.append((old, a1 + 1, a1 + up_top[1], not turned))
        # new vertex i takes the top arc from old vertex a - b + 1 - i,
        # which points to it
        phi = old.copy()
        phi[1:1] = [f + sign for f in old[a - b:a - 2 * b:-1]]
    else:
        gone.append((old, 1, up_bottom[0], turned))
        # the first a - b slots take top arcs from kept vertices, which
        # point to them; from each unset one the path runs through the
        # slots, by bottom and top arcs in turn, until a top arc leaves
        # them or it ends
        phi = [None] * (b + 1)
        phi += old[up_bottom[0] + 1:]
        for i in range(1, a - b + 1):
            if phi[i] is not None:
                continue
            f = phi[a + 1 - i] + sign
            cur = i
            while True:
                phi[cur] = f
                nxt = b + 1 - cur
                if nxt == cur:
                    break
                f += sign if nxt > cur else -sign
                phi[nxt] = f
                cur = a + 1 - nxt
                if cur == nxt or cur > b:
                    break
                f += sign if cur < nxt else -sign
    made = ((phi, 1, a, not turned), (phi, 1, b, turned))
    return (top, bottom, phi, sign), made, gone


def _grow(dims: dict, made, gone) -> dict:
    """The spectrum of a node from dims, that of its parent, and the blocks
    _child says its edge made and replaced: a copy of dims less the
    measures of gone plus those of made."""
    lost: dict = {}
    for block in gone:
        _count_block(*block, lost)
    dims = dict(dims)
    for block in made:
        _count_block(*block, dims)
    for e, c in lost.items():
        c = dims[e] - c
        if c:
            dims[e] = c
        else:
            del dims[e]
    return dims


def _scan(kind: str, n_max: int, visit, state) -> ScanReport:
    """Report the records of visit(state, node, made, gone) for every
    Frobenius meander of order <= n_max, as the counterexamples of a scan
    of the given kind.  node, made and gone are what _child gives for the
    meander's edge from its parent, and state is what visit returned at
    that parent, or the given state at the root; visit returns (state,
    records).  The walk keeps the current tree path, one (node, state) per
    depth, and no meander is walked: each node's potentials come from its
    parent's.  An n_max over SCAN_MAX_ORDER raises PreconditionError
    before the walk."""
    if type(n_max) is not int or n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    _check_budget("order", n_max, SCAN_MAX_ORDER, "scan")
    t0 = time.monotonic()
    found = []
    checked = 0
    path: list = [(None, state)]
    for top, bottom, _, depth, tag in _meander_tree(n_max, 0, 2 * n_max):
        checked += 1
        del path[depth:]
        up, state = path[-1]
        node, made, gone = _child(tag, up, top, bottom)
        state, records = visit(state, node, made, gone)
        path.append((node, state))
        if records:
            found.extend((top, bottom, record) for record in records)
    return ScanReport(
        kind=kind,
        parameters={"n_max": n_max},
        counterexamples=_in_scan_order(found),
        checked=checked,
        elapsed=time.monotonic() - t0,
    )


def _classifier():
    """classify, remembering the flags of each multiset it has seen: a scan
    meets few distinct ones.  To order 16 the 104 971 Frobenius meanders
    have 3 310 spectra, and the 104 972 blocks made 187 measure multisets."""
    seen: dict = {}

    def flags(dims: dict) -> SpectrumFlags:
        key = frozenset(dims.items())
        found = seen.get(key)
        if found is None:
            found = seen[key] = classify(dims)
        return found

    return flags


def scan_unimodality(n_max: int) -> ScanReport:
    """Spectra of all Frobenius meanders with order <= n_max, shape-checked.

    Each spectrum is grown from its parent's along the tree, measuring only
    the blocks the up-move replaced and made; a flip has the spectrum of
    its parent, and so its flags.  Counterexamples to unimodality or
    strict unimodality are collected in the report; symmetry or
    unbrokenness failures are impossible for correct code and therefore
    raise.
    """
    shape = _classifier()

    def visit(state: tuple, node: tuple, made, gone):
        if made:
            dims = _grow(state[0], made, gone)
            flags = shape(dims)
        else:
            dims, flags = state
        top, bottom, *_ = node
        if not (flags.symmetric and flags.unbroken):
            raise ConsistencyError(
                f"symmetric/unbroken violated at {MeanderType(top, bottom)}: {dims}"
            )
        if flags.unimodal and flags.strictly_unimodal:
            return (dims, flags), ()
        return (dims, flags), [{
            "meander": str(MeanderType(top, bottom)),
            "spectrum": {str(e): d for e, d in sorted(dims.items())},
            "unimodal": flags.unimodal,
            "strictly_unimodal": flags.strictly_unimodal,
        }]

    return _scan("unimodality", n_max, visit, ({}, None))


def scan_block_measures(n_max: int) -> ScanReport:
    """Per-block measures of all Frobenius meanders with order <= n_max.

    Each block's multiset must be unbroken and symmetric about one half.
    Every block is checked once, as block 1 of the meander whose up-move
    makes it; its descendants keep its measures, and a flip makes none.
    This is a proven fact; the report is expected empty and the caller may
    treat any counterexample as fatal.

    The measures come from spectrum._count_block, which reads only the
    potentials of the block's arc starts and centre and writes every
    measure with its mirror 1 - e (see the spectrum module docstring).  So
    the symmetric check now tests only that routine's code, while the
    unbroken check still tests the potentials _child derives; the tests
    compare both with the pair loop over walked potentials.
    """
    shape = _classifier()

    def visit(_, node: tuple, made, gone):
        top, bottom, *_ = node
        records = []
        for side, block in zip(("top", "bottom"), made):
            dims = _count_block(*block, {})
            flags = shape(dims)
            if not (flags.symmetric and flags.unbroken):
                records.append({
                    "meander": str(MeanderType(top, bottom)),
                    "side": side,
                    "block": 1,
                    "measures": list(_elements(dims)),
                })
        return None, records

    return _scan("block-measures", n_max, visit, None)


_CONFIG_KEYS = ("max_coef", "n_max", "sample_size", "seed")


def load_config(text: str, keys: tuple[str, ...] = _CONFIG_KEYS) -> dict:
    """Parse `key = value` lines of the given keys; '#' starts a comment,
    blank lines ignored."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _parse_uint(value, f"value on config line {lineno}")
    return out
