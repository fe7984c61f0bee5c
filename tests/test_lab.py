import json
import multiprocessing
import os
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
from meanderkit.core import MeanderType, _compositions, _index
from meanderkit.lab import _canonical_vectors, _in_scan_order, _scan_slice, _size_vectors
from meanderkit.winding import _meander_tree, is_frobenius, signature_simplified

from conftest import brute_pairs, compositions


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
    # lowering phi(1) of 1|2/3 by 2 leaves its top blocks symmetric and
    # unbroken but turns the bottom block's measures 4, 3, -1 and one 0
    # into a counterexample, reported with its measures sorted
    real = lab._walk
    partners = lab._partners((1, 2), (3,))

    def skewed(tp, bp):
        phi, root, cycles, paths = real(tp, bp)
        if (tp, bp) == partners:
            phi[1] -= 2
        return phi, root, cycles, paths

    monkeypatch.setattr(lab, "_walk", skewed)
    report = scan_block_measures(4)
    assert report.counterexamples == [
        {"meander": "1|2/3", "side": "bottom", "block": 1, "measures": [-1, 0, 3, 4]}
    ]
    assert report.checked == 23


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
    pairs = [(top, bottom) for top, bottom, _ in _meander_tree(n_max, 0, 2 * n_max)]
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
