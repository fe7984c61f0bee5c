import pytest

from meanderkit import (
    ComponentSummary,
    MeanderType,
    ParseError,
    PreconditionError,
    build_graph,
    components,
    enumerate_meanders,
    format_type,
    index_naive,
    parse_type,
)
from meanderkit.core import WALK_MAX_ORDER


def test_parse_examples():
    m = parse_type("1|2/3")
    assert m.top == (1, 2) and m.bottom == (3,)
    m = parse_type("2|2|3/5|2")
    assert m.top == (2, 2, 3) and m.bottom == (5, 2)
    m = parse_type(" 1|2 / 3 ")
    assert m.top == (1, 2) and m.bottom == (3,)


def test_parse_rejects_sum_mismatch():
    with pytest.raises(ParseError):
        parse_type("1|2/4")


@pytest.mark.parametrize(
    "bad", ["", "1|2", "1|2/3/4", "0|3/3", "1|-2/3", "a/3", "1||2/4", "²/2", "٣/٣"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_type(bad)


def test_bool_sizes_are_refused():
    # True == 1, but True|1/2 would not read back
    for top, bottom in (((True, 1), (2,)), ((2,), (1, True))):
        with pytest.raises(ParseError):
            MeanderType(top, bottom)


def test_format_round_trip():
    for text in ["1|2/3", "16|2|4/5|17", "1/1"]:
        assert format_type(parse_type(text)) == text


def test_build_graph_examples():
    g = build_graph(parse_type("1|2/3"))
    assert g.edges() == {(2, 3, "top"), (1, 3, "bottom")}
    assert build_graph(parse_type("1/1")).edges() == set()
    g = build_graph(parse_type("4/4"))
    assert g.edges() == {
        (1, 4, "top"),
        (2, 3, "top"),
        (1, 4, "bottom"),
        (2, 3, "bottom"),
    }


def test_edge_count_formula():
    for m in enumerate_meanders(7):
        expected = sum(a // 2 for a in m.top) + sum(b // 2 for b in m.bottom)
        assert len(build_graph(m).edges()) == expected


def test_components_examples():
    assert components(build_graph(parse_type("3/3"))) == ComponentSummary(1, 1)
    assert components(build_graph(parse_type("1|2/3"))) == ComponentSummary(0, 1)
    assert components(build_graph(parse_type("1/1"))) == ComponentSummary(0, 1)


def test_index_examples():
    assert index_naive(parse_type("2|1/2|1")) == 2
    assert index_naive(parse_type("1|2/3")) == 0
    assert index_naive(parse_type("5/5")) == 4


def test_full_blocks_index():
    # c/c has floor(c/2) cycles plus (c odd) one center path
    for c in range(1, 30):
        assert index_naive(MeanderType((c,), (c,))) == c - 1


def test_empty_meander_index_convention():
    assert index_naive(MeanderType((), ())) == -1


def test_flip_invariance():
    # exhaustive to n=10, random spot checks beyond
    for n in range(1, 11):
        for m in enumerate_meanders(n):
            assert index_naive(m) == index_naive(m.flip())
    import random

    from conftest import random_meander

    rng = random.Random(99)
    for _ in range(2000):
        m = random_meander(rng, 14)
        assert index_naive(m) == index_naive(m.flip())


def test_components_all_paths_or_cycles():
    # every component is a simple path or cycle: degrees at most 2 and the
    # cycle/path split covers everything
    for m in enumerate_meanders(6):
        g = build_graph(m)
        summary = components(g)
        assert summary.cycles >= 0 and summary.paths >= 0
        assert summary.cycles + summary.paths >= 1


def test_walk_budget_comes_before_the_partner_arrays():
    big = MeanderType((1, WALK_MAX_ORDER), (WALK_MAX_ORDER + 1,))
    message = f"order {WALK_MAX_ORDER + 1} exceeds the walk budget {WALK_MAX_ORDER}"
    for route in (index_naive, build_graph):
        with pytest.raises(PreconditionError, match=message):
            route(big)
    assert index_naive(MeanderType((), ())) == -1
