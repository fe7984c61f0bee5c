import importlib
import json
import multiprocessing
import os
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanderkit import (
    GcdCondition,
    ParseError,
    PreconditionError,
    five_block_meanders,
    index_naive,
    load_config,
    scan_block_measures,
    scan_unimodality,
    search_gcd_conditions,
)
from meanderkit import lab
from meanderkit.core import MeanderType, _block_spans, _compositions, _index, _partners, _walk
from meanderkit.lab import (
    ScanReport,
    _canonical_vectors,
    _in_scan_order,
    _scan_slice,
    _size_vectors,
)
from meanderkit.spectrum import SpectrumFlags, _elements, _spectrum_raw, classify
from meanderkit.winding import (
    UpMove,
    _meander_tree,
    apply_up_move,
    is_frobenius,
    signature_simplified,
)

from conftest import _pair_measures, brute_pairs, compositions


def test_condition_validation():
    with pytest.raises(PreconditionError):
        GcdCondition((0, 0, 0, 0, 0), (0, 0, 0, 0, 0))
    cond = GcdCondition((1, 1, 0, 0, 0), (0, 1, 1, 0, 0))
    assert cond.holds((2, 3, 4, 1, 1)) == (1 == 1)  # gcd(5, 7) == 1
    assert not cond.holds((2, 2, 4, 1, 1))  # gcd(4, 6) == 2


def test_five_block_meanders_split():
    frob, nonfrob = five_block_meanders(8)
    assert frob and nonfrob
    assert all(len(m.top) + len(m.bottom) == 5 for m in frob + nonfrob)
    assert all(index_naive(m) == 0 for m in frob)
    assert all(index_naive(m) != 0 for m in nonfrob)


def _five_block_loop(n_max):
    """The slow route: every pair of compositions with five blocks in all,
    order by order and by the number of top blocks, split by a component
    walk each."""
    frob, nonfrob = [], []
    for n in range(1, n_max + 1):
        by_len = {}
        for comp in _compositions(n):
            by_len.setdefault(len(comp), []).append(comp)
        for top_len in range(1, 5):
            for top in by_len.get(top_len, ()):
                for bottom in by_len.get(5 - top_len, ()):
                    m = MeanderType(top, bottom)
                    (frob if _index(top, bottom) == 0 else nonfrob).append(m)
    return frob, nonfrob


def test_five_block_meanders_match_the_loop_in_order():
    # the sampled gcd search draws from the lists by position
    for n_max in range(0, 13):
        assert five_block_meanders(n_max) == _five_block_loop(n_max)


def test_search_gcd_small_run():
    frob, nonfrob = five_block_meanders(10)
    report = search_gcd_conditions(1, frob, nonfrob)
    assert report.kind == "gcd-conditions"
    assert report.survivors == []
    assert report.checked > 0


def test_search_gcd_tiny_sample_can_leave_survivors():
    # an under-constrained sample need not kill every condition
    frob, nonfrob = five_block_meanders(6)
    report = search_gcd_conditions(1, frob[:1], nonfrob[:1])
    assert isinstance(report.survivors, list)


def test_search_gcd_validates_samples():
    frob, nonfrob = five_block_meanders(6)
    with pytest.raises(PreconditionError):
        search_gcd_conditions(1, nonfrob[:3], nonfrob[:3])
    with pytest.raises(PreconditionError):
        search_gcd_conditions(1, [], nonfrob[:3])


def test_search_gcd_workers_equivalent():
    frob, nonfrob = five_block_meanders(8)
    one = search_gcd_conditions(1, frob, nonfrob, workers=1)
    for workers in (2, 3):
        assert search_gcd_conditions(1, frob, nonfrob, workers=workers).payload() == one.payload()


def test_search_gcd_workers_bounded(monkeypatch):
    frob, nonfrob = five_block_meanders(6)
    with pytest.raises(PreconditionError):
        search_gcd_conditions(1, frob, nonfrob, workers=0)
    requested = []

    class InProcessPool:
        # stands in for multiprocessing.Pool, so that no process starts
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    one = search_gcd_conditions(1, frob, nonfrob, workers=1)
    capped = search_gcd_conditions(1, frob, nonfrob, workers=1000)
    assert requested == [3]
    assert capped.payload() == one.payload()


def test_search_gcd_pair_budget(monkeypatch):
    # ((2c + 1)^5 + 1) / 2 canonical vectors, the zero one included, and
    # every pair of them but zero with zero: 7 502 at max_coef 1
    frob, nonfrob = five_block_meanders(6)
    for c, pairs in ((20, 1677832471697150), (6, 17232497127)):
        with pytest.raises(PreconditionError) as exc:
            search_gcd_conditions(c, frob, nonfrob)
        assert str(exc.value) == f"pair count {pairs} exceeds the gcd budget {lab.GCD_MAX_PAIRS}"
    monkeypatch.setattr(lab, "GCD_MAX_PAIRS", 7502)
    assert search_gcd_conditions(1, frob, nonfrob).checked == 7502
    monkeypatch.setattr(lab, "GCD_MAX_PAIRS", 7501)
    with pytest.raises(PreconditionError, match="pair count 7502 exceeds"):
        search_gcd_conditions(1, frob, nonfrob)


def test_search_gcd_slices_balanced():
    # every inner loop runs from its first vector to the end; interleaved
    # slices share those loops out so that no slice is more than one loop
    # ahead of another, and together they check every pair once
    frob, nonfrob = five_block_meanders(8)
    vectors = _canonical_vectors(1)
    samples = (_size_vectors(frob), _size_vectors(nonfrob))
    total = _scan_slice((vectors, 0, 1, *samples))[1]
    for k in (2, 3, 4):
        checked = [_scan_slice((vectors, w, k, *samples))[1] for w in range(k)]
        assert max(checked) - min(checked) <= len(vectors)
        assert sum(checked) == total


def test_search_gcd_reproducible_with_sampling():
    frob, nonfrob = five_block_meanders(9)
    a = search_gcd_conditions(1, frob, nonfrob, seed=5, sample_size=40)
    b = search_gcd_conditions(1, frob, nonfrob, seed=5, sample_size=40)
    assert a.payload() == b.payload()


def test_search_gcd_refuses_an_empty_subsample():
    frob, nonfrob = five_block_meanders(6)
    with pytest.raises(PreconditionError, match="sample_size must be >= 1"):
        search_gcd_conditions(1, frob, nonfrob, sample_size=0)
    report = search_gcd_conditions(1, frob, nonfrob, sample_size=1)
    assert report.parameters["frobenius_samples"] == 1


# True == 1, but a bool would print as true in the reproducible payload
@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((True,), {}, "max_coef must be >= 1"),
        ((1,), {"sample_size": True}, "sample_size must be >= 1"),
        ((1,), {"workers": True}, "workers must be >= 1"),
        ((1,), {"seed": True}, "seed must be an integer"),
    ],
    ids=["max_coef", "sample_size", "workers", "seed"],
)
def test_search_gcd_refuses_bool_arguments(args, kwargs, message):
    frob, nonfrob = five_block_meanders(6)
    with pytest.raises(PreconditionError, match=message):
        search_gcd_conditions(*args, frob, nonfrob, **kwargs)


def test_five_block_meanders_refuses_a_bool_order():
    # True would otherwise run as order 1
    with pytest.raises(PreconditionError, match="n_max must be an integer, got True"):
        five_block_meanders(True)


def test_scans_refuse_a_bool_order():
    for scan in (scan_unimodality, scan_block_measures):
        with pytest.raises(PreconditionError, match="n_max must be >= 1"):
            scan(True)


def test_scan_order_budgets(monkeypatch):
    # each bound is checked before the walk, so an astronomical order is
    # refused at once, and the bound itself is accepted
    huge = 10**20
    for scan in (scan_unimodality, scan_block_measures):
        with pytest.raises(PreconditionError) as exc:
            scan(huge)
        assert str(exc.value) == f"order {huge} exceeds the scan budget {lab.SCAN_MAX_ORDER}"
    with pytest.raises(PreconditionError) as exc:
        five_block_meanders(huge)
    assert str(exc.value) == (
        f"order {huge} exceeds the five-block budget {lab.FIVE_BLOCK_MAX_ORDER}"
    )
    monkeypatch.setattr(lab, "SCAN_MAX_ORDER", 5)
    monkeypatch.setattr(lab, "FIVE_BLOCK_MAX_ORDER", 7)
    assert scan_unimodality(5).checked == scan_block_measures(5).checked == 57
    assert list(map(len, five_block_meanders(7))) == [92, 328]
    for call, n, budget in (
        (scan_unimodality, 6, "scan budget 5"),
        (scan_block_measures, 6, "scan budget 5"),
        (five_block_meanders, 8, "five-block budget 7"),
    ):
        with pytest.raises(PreconditionError, match=f"^order {n} exceeds the {budget}$"):
            call(n)


def test_scan_unimodality_small():
    report = scan_unimodality(8)
    assert report.counterexamples == []
    assert report.checked > 0
    assert scan_unimodality(1).counterexamples == []


def test_scan_block_measures_small():
    report = scan_block_measures(8)
    assert report.counterexamples == []
    assert scan_block_measures(1).counterexamples == []


def test_scan_block_measures_reports_a_broken_block(monkeypatch):
    # the scan measures each block once, at the meander whose up-move makes
    # it: the bottom block 3 of 1|2/3 is top block 1 of 3/1|2, and 1|2/3 is
    # the flip child of 3/1|2, which the scan does not measure again.  So
    # the skew goes into the potentials that 3/1|2 derives as the ~P0 child
    # of 1|1/2.  Its sign is -1, so the block is read turned, left to
    # right, with vertex 1 as its arc start: raising phi(1) by 2 turns the
    # measures -1, 0, 1, 2 of that block into -3, 0, 1, 4, symmetric about
    # one half, as every block _count_block measures is, but broken, a
    # counterexample reported with its measures sorted
    real = lab._child

    def skewed(tag, up, top, bottom):
        node, made, gone = real(tag, up, top, bottom)
        if (top, bottom) == ((3,), (1, 2)):
            assert (tag, up[:2]) == ("~P0", ((1, 1), (2,)))
            node[2][1] += 2 * node[3]  # the potential is sign * phi
        return node, made, gone

    monkeypatch.setattr(lab, "_child", skewed)
    report = scan_block_measures(4)
    assert report.counterexamples == [
        {"meander": "3/1|2", "side": "top", "block": 1, "measures": [-3, 0, 1, 4]}
    ]
    assert report.checked == 23


def _slow_scan(kind, n_max, records):
    """The slow route of a scan: records(top, bottom) of every Frobenius
    meander, each measured whole from a walk of its own."""
    found = []
    checked = 0
    for top, bottom, *_ in _meander_tree(n_max, 0, 2 * n_max):
        checked += 1
        found.extend((top, bottom, record) for record in records(top, bottom))
    return ScanReport(
        kind, {"n_max": n_max}, counterexamples=_in_scan_order(found), checked=checked
    )


def _slow_unimodality(top, bottom):
    """The whole spectrum of one meander, classified."""
    dims = _spectrum_raw(_walk(*_partners(top, bottom))[0], top, bottom)
    flags = classify(dims)
    assert flags.symmetric and flags.unbroken, (top, bottom, dims)
    if not (flags.unimodal and flags.strictly_unimodal):
        yield {
            "meander": str(MeanderType(top, bottom)),
            "spectrum": {str(e): d for e, d in sorted(dims.items())},
            "unimodal": flags.unimodal,
            "strictly_unimodal": flags.strictly_unimodal,
        }


def _slow_block_measures(top, bottom):
    """Every block of one meander, each measured by the pair loop and
    classified."""
    phi = _walk(*_partners(top, bottom))[0]
    for side, comp in (("top", top), ("bottom", bottom)):
        for k, (p, q) in enumerate(_block_spans(comp), start=1):
            dims = _pair_measures(phi, p, q, side == "top", {})
            flags = classify(dims)
            if not (flags.symmetric and flags.unbroken):
                yield {
                    "meander": str(MeanderType(top, bottom)),
                    "side": side,
                    "block": k,
                    "measures": list(_elements(dims)),
                }


def test_scans_match_the_slow_routes():
    for n_max in range(1, 13):
        for scan, kind, records in (
            (scan_unimodality, "unimodality", _slow_unimodality),
            (scan_block_measures, "block-measures", _slow_block_measures),
        ):
            slow = _slow_scan(kind, n_max, records).payload()
            fast = scan(n_max).payload()
            assert json.dumps(fast, sort_keys=True) == json.dumps(slow, sort_keys=True)


def _node(top, bottom):
    """(top, bottom, phi) of a meander, phi from a walk of its own."""
    return top, bottom, _walk(*_partners(top, bottom))[0]


def _walk_agrees(node):
    """The potentials of a walk of node's own meander, once checked against
    the ones node derived: sign * phi is the walk's phi plus one constant."""
    top, bottom, phi, sign = node
    walked = _node(top, bottom)[2]
    assert len(phi) == len(walked) == sum(top) + 1, node
    assert len({sign * f - w for f, w in zip(phi[1:], walked[1:])}) == 1, node
    return walked


def test_derived_potentials_match_the_walk_to_order_12():
    # the scan's own path keeping: every node's potentials, derived from its
    # parent's, against a walk of its own; each visit hands its node on as
    # the state of its children, and the tree names each edge
    edges = {(top, bottom): tag for top, bottom, _, _, tag in _meander_tree(12, 0, 24)}
    tags = {}

    def visit(up, node, made, gone):
        _walk_agrees(node)
        tag = edges[node[:2]]
        if tag == "~R0" and up[0][0] < 2 * up[1][0]:
            tag = "~R0 chained"  # d < b1 slots: the walk over B1 chains
        tags[tag] = tags.get(tag, 0) + 1
        return node, ()

    assert lab._scan("derived", 12, visit, None).checked == 8609
    assert set(tags) == {"~C0", "~F0", "~B0", "~P0", "~R0", "~R0 chained"}
    assert tags["~C0"] == 1 and tags["~R0 chained"] > 400


def test_rotation_slots_are_filled_by_a_chained_walk():
    # ~R0 takes 6/4|1|1 (a1 = 6 < 2 b1) to 8/6|1|1.  From entry vertex 1
    # the path runs 1, 6, 3, 4, 5, 2 through all six slots, by bottom and
    # top arcs in turn, the last two against their orientation, and leaves
    # by the top arc of the other entry vertex, 2, which is then set; either
    # sign of the parent gives the same potentials
    parent = _node((6,), (4, 1, 1))
    walked = _node((8,), (6, 1, 1))[2]
    for sign in (1, -1):
        up = (*parent[:2], [None] + [sign * f for f in parent[2][1:]], sign)
        node, _, _ = lab._child("~R0", up, (8,), (6, 1, 1))
        assert node[3] == sign and node[2][7:] == up[2][5:]
        rise = [sign * (node[2][v] - node[2][1]) for v in (1, 6, 3, 4, 5, 2)]
        assert rise == [0, 1, 2, 3, 2, 1]
        assert _walk_agrees(node) == walked


def test_grown_spectra_match_the_raw_spectrum_to_order_12():
    # the scan's own path keeping, with a fresh walk and a whole spectrum
    # beside every grown one
    def visit(dims, node, made, gone):
        dims = lab._grow(dims, made, gone)
        top, bottom, *_ = node
        raw = _spectrum_raw(_node(top, bottom)[2], top, bottom)
        return dims, [] if dims == raw else [str(MeanderType(top, bottom))]

    report = lab._scan("grown", 12, visit, {})
    assert report.checked == 8609
    assert report.counterexamples == []


def _children(top, bottom, n_max):
    """The tree children of a Frobenius meander within order n_max, each
    with its tag, by the public up-moves: ~F0 and ~R0 when a1 > b1, ~B0,
    and ~P0 when there are two top blocks."""
    tags = ["~B0"]
    if top[0] > bottom[0]:
        tags += ["~F0", "~R0"]
    if len(top) > 1:
        tags.append("~P0")
    found = [(tag, apply_up_move(UpMove(tag), MeanderType(top, bottom))) for tag in tags]
    return [(tag, m.top, m.bottom) for tag, m in found if m.n <= n_max]


def test_grown_spectra_match_along_random_paths_to_order_20():
    rng = random.Random(20)
    nodes = 0
    orders = set()
    for _ in range(60):
        up, dims = None, {}
        tag, top, bottom = "~C0", (1,), (1,)
        while True:
            node, made, gone = lab._child(tag, up, top, bottom)
            dims = lab._grow(dims, made, gone)
            assert dims == _spectrum_raw(_walk_agrees(node), top, bottom), node
            nodes += 1
            children = _children(top, bottom, 20)
            if not children:
                break
            up = node
            tag, top, bottom = rng.choice(children)
        assert sum(top) + top[0] > 20  # a leaf: even ~B0 passes order 20
        orders.add(sum(top))
    assert nodes > 600 and 20 in orders


def _block_multisets(node):
    """The measure multiset of every block of node by the pair loop: (top
    ones, bottom ones)."""
    top, bottom, phi = node
    return tuple(
        [_elements(_pair_measures(phi, p, q, is_top, {})) for p, q in _block_spans(comp)]
        for comp, is_top in ((top, True), (bottom, False))
    )


def test_every_edge_keeps_the_blocks_it_does_not_make():
    # the lemma the incremental scans rest on, on every edge to order 10,
    # each walked node beside the one _child derives from its parent's, and
    # the blocks _child says the edge makes and replaces beside the walk's
    path = [(((), (), [None]), None)]  # the empty meander, with a phi of order 0
    flips = 0
    for top, bottom, _, depth, tag in _meander_tree(10, 0, 20):
        del path[depth:]
        up, derived_up = path[-1]
        node = _node(top, bottom)
        derived, made, gone = lab._child(tag, derived_up, top, bottom)
        path.append((node, derived))
        up_top, up_bottom = _block_multisets(up)
        new_top, new_bottom = _block_multisets(node)
        assert (tag == "~F0") == (sum(top) == sum(up[0]))
        if tag == "~F0":
            # a flip: the same blocks with the sides swapped, every
            # potential negated, and so the same spectrum; the derived
            # child shares its parent's list and turns the sign
            flips += 1
            assert (new_top, new_bottom) == (up_bottom, up_top)
            assert node[2][1:] == [-f for f in up[2][1:]]
            assert derived[2] is derived_up[2] and derived[3] == -derived_up[3]
            assert _spectrum_raw(node[2], top, bottom) == _spectrum_raw(up[2], *up[:2])
            assert made == gone == ()
            continue
        # any other move replaces the first len(old) - len(new) + 1 blocks
        # of each side and makes block 1 of each side; the rest keep theirs
        replaced = [len(up[i]) - len(node[i]) + 1 for i in (0, 1)]
        assert new_top[1:] == up_top[replaced[0]:]
        assert new_bottom[1:] == up_bottom[replaced[1]:]
        # each block read as its side says, turned where the sign is -1
        assert list(gone) == [
            (derived_up[2], p, q, is_top != (derived_up[3] < 0))
            for i, is_top in ((0, True), (1, False))
            for p, q in list(_block_spans(up[i]))[: replaced[i]]
        ]
        assert list(made) == [
            (derived[2], 1, node[i][0], is_top != (derived[3] < 0))
            for i, is_top in ((0, True), (1, False))
        ]
    assert 2 * flips + 1 == sum(FROBENIUS_PER_ORDER)  # all but 1/1 pair off


def test_block_sides_are_real_below_a_flip(monkeypatch):
    # with every multiset rejected, the block scan reports block 1 of each
    # side of every meander that is not a flip child, as the slow route
    # does; below an odd number of flips a block is read turned, but its
    # record names the side it lies on
    def reject(dims):
        return SpectrumFlags(False, False, True, True)

    monkeypatch.setattr(lab, "classify", reject)
    monkeypatch.setitem(globals(), "classify", reject)  # for the slow route
    tags = {(top, bottom): tag for top, bottom, _, _, tag in _meander_tree(4, 0, 8)}

    def made(top, bottom):
        if tags[(top, bottom)] != "~F0":
            yield from (r for r in _slow_block_measures(top, bottom) if r["block"] == 1)

    fast = scan_block_measures(4).payload()
    assert fast == _slow_scan("block-measures", 4, made).payload()
    assert len(fast["counterexamples"]) == 2 * 12  # 23 meanders, 11 of them flips

    def turned(_, node, made, gone):
        return None, [] if node[3] > 0 or not made else [node[:2]]

    # 3/1|2, the ~P0 child of 1|1/2, the flip child of 2/1|1, among others
    assert lab._scan("turned", 4, turned, None).counterexamples == [
        ((2, 1), (1, 2)), ((3,), (1, 2)), ((3, 1), (2, 2)), ((4,), (1, 1, 2)), ((4,), (1, 3))
    ]


def test_the_scans_walk_no_meander(monkeypatch):
    # every node's potentials come from its parent's, so neither scan
    # builds partner arrays or walks them, by core or by any module that
    # holds the two; the counters count, as one spectrum shows
    modules = [importlib.import_module(f"meanderkit.{m}") for m in ("core", "spectrum", "winding")]
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    assert not hasattr(lab, "_walk") and not hasattr(lab, "_partners")
    for module in modules:
        for name in ("_partners", "_walk"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert scan_unimodality(10).checked == scan_block_measures(10).checked == 2297
    assert calls == []
    modules[1].spectrum(MeanderType((1, 2), (3,)))
    assert calls == ["_partners", "_walk"]


def test_report_json_round_trip():
    report = scan_unimodality(4)
    data = json.loads(report.to_json())
    assert data["kind"] == "unimodality"
    assert data["parameters"] == {"n_max": 4}
    assert "elapsed_seconds" in data


def test_load_config():
    text = """
    # comment
    max_coef = 2
    n_max = 12   # trailing comment
    seed = 7
    sample_size = 100
    """
    assert load_config(text) == {"max_coef": 2, "n_max": 12, "seed": 7, "sample_size": 100}


def test_load_config_rejects_bad_lines():
    with pytest.raises(ParseError):
        load_config("max_coef: 3")
    with pytest.raises(ParseError):
        load_config("unknown = 3")
    with pytest.raises(ParseError):
        load_config("n_max = twelve")
    with pytest.raises(ParseError):
        load_config("n_max = ٣")


# Frobenius meanders of order 1..10; 275 to order 7 and 8 609 to order 12
FROBENIUS_PER_ORDER = (1, 2, 6, 14, 34, 68, 150, 296, 586, 1140)


def _frobenius_pairs(n_max):
    """The reverse-search tree, sorted into the brute loop's order."""
    pairs = [(top, bottom) for top, bottom, *_ in _meander_tree(n_max, 0, 2 * n_max)]
    return sorted(pairs, key=lambda tb: (sum(tb[0]), tb))


def test_frobenius_pairs_match_brute_filter():
    # the slow route: every pair of compositions, kept when its index is 0
    brute = [(top, bottom) for top, bottom, index in brute_pairs(10) if index == 0]
    for n_max in range(1, 11):
        assert _frobenius_pairs(n_max) == [tb for tb in brute if sum(tb[0]) <= n_max]
    counts = [sum(1 for top, _ in brute if sum(top) == n) for n in range(1, 11)]
    assert tuple(counts) == FROBENIUS_PER_ORDER
    pairs = _frobenius_pairs(12)
    assert len(pairs) == len(set(pairs)) == 8609
    assert _frobenius_pairs(0) == []


def test_counterexamples_sorted_by_meander_stably():
    # the scans stream the tree and sort only what they report
    found = [
        ((2, 1), (1, 2), "b"),
        ((1,), (1,), "a"),
        ((2, 1), (1, 2), "c"),
        ((1, 2), (3,), "d"),
        ((1, 2), (2, 1), "e"),
    ]
    assert _in_scan_order(found) == ["a", "e", "d", "b", "c"]


@lru_cache(maxsize=None)
def _frobenius_to_12():
    pairs = _frobenius_pairs(12)
    return pairs, frozenset(pairs)


@st.composite
def _meanders(draw):
    """A meander of order <= 12; half of the draws are Frobenius ones."""
    if draw(st.booleans()):
        pairs, _ = _frobenius_to_12()
        return MeanderType(*pairs[draw(st.integers(0, len(pairs) - 1))])
    n = draw(st.integers(1, 12))
    return MeanderType(draw(compositions(n)), draw(compositions(n)))


@settings(max_examples=300)
@given(_meanders())
def test_frobenius_membership_agrees(m):
    in_tree = (m.top, m.bottom) in _frobenius_to_12()[1]
    assert in_tree == (_index(m.top, m.bottom) == 0)
    assert in_tree == is_frobenius(signature_simplified(m))
