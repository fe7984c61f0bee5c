import json

import pytest

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
    two = search_gcd_conditions(1, frob, nonfrob, workers=2)
    assert one.payload() == two.payload()


def test_search_gcd_reproducible_with_sampling():
    frob, nonfrob = five_block_meanders(9)
    a = search_gcd_conditions(1, frob, nonfrob, seed=5, sample_size=40)
    b = search_gcd_conditions(1, frob, nonfrob, seed=5, sample_size=40)
    assert a.payload() == b.payload()


def test_scan_unimodality_small():
    report = scan_unimodality(8)
    assert report.counterexamples == []
    assert report.checked > 0
    assert scan_unimodality(1).counterexamples == []


def test_scan_block_measures_small():
    report = scan_block_measures(8)
    assert report.counterexamples == []
    assert scan_block_measures(1).counterexamples == []


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
