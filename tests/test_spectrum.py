import importlib
import random
from collections import Counter

import pytest

from meanderkit import (
    MeanderType,
    ad_spectrum,
    NotFrobeniusError,
    PreconditionError,
    admissible_pairs,
    block_measures,
    classify,
    cybe_residual,
    enumerate_meanders,
    index_naive,
    measure,
    parse_type,
    principal_element,
    spectrum,
    spectrum_to_json,
)
from meanderkit.core import WALK_MAX_ORDER, _block_spans, _partners, _walk
from meanderkit.spectrum import _require_frobenius
from meanderkit.winding import _parameters

from conftest import brute_pairs, random_meander


def test_admissible_pair_counts():
    assert len(admissible_pairs(parse_type("1|4/2|3"))) == 15
    assert admissible_pairs(parse_type("1/1")) == [(1, 1)]
    assert len(admissible_pairs(parse_type("1|2/3"))) == 7


def test_admissible_pair_count_formula():
    for n in range(1, 10):
        for m in enumerate_meanders(n):
            expected = (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2
            assert len(admissible_pairs(m)) == expected


def test_measure_examples():
    m = parse_type("1|2/3")
    assert measure(m, 1, 2) == 2
    assert measure(m, 1, 1) == 0
    assert measure(m, 2, 1) == -2
    assert measure(parse_type("1|4/2|3"), 4, 2) == 3


def test_measure_antisymmetric():
    m = parse_type("1|4/2|3")
    for i, j in admissible_pairs(m):
        assert measure(m, i, j) == -measure(m, j, i)


def test_measure_walk_budget():
    # the order is checked before the partner arrays are built
    with pytest.raises(PreconditionError) as exc:
        measure(MeanderType((10**9,), (10**9,)), 1, 1)
    assert str(exc.value) == f"order 1000000000 exceeds the walk budget {WALK_MAX_ORDER}"


def test_measure_rejects_cycles_and_split_components():
    m = parse_type("2/2")  # one 2-cycle
    with pytest.raises(PreconditionError):
        measure(m, 1, 2)
    m = parse_type("1|1/1|1")  # two isolated vertices
    with pytest.raises(PreconditionError):
        measure(m, 1, 2)


def test_spectrum_golden():
    assert spectrum(parse_type("1|4/2|3")) == {-2: 1, -1: 2, 0: 4, 1: 4, 2: 2, 3: 1}
    assert spectrum(parse_type("1/1")) == {}
    assert spectrum(parse_type("1|2/3")) == {-1: 1, 0: 2, 1: 2, 2: 1}


def test_spectrum_rejects_non_frobenius():
    with pytest.raises(NotFrobeniusError) as exc:
        spectrum(parse_type("3/3"))
    assert exc.value.index == 2
    assert "index 2" in str(exc.value)


def test_spectrum_total_dimension():
    for n in range(1, 11):
        for m in enumerate_meanders(n):
            if index_naive(m) != 0:
                continue
            dims = spectrum(m)
            expected = (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2 - 1
            assert sum(dims.values()) == expected


def _frobenius(n_max):
    return [MeanderType(top, bottom) for top, bottom, index in brute_pairs(n_max) if index == 0]


def _blocks(m):
    """(side, k, first, last) of every block, top blocks first."""
    for side, comp in (("top", m.top), ("bottom", m.bottom)):
        for k, (p, q) in enumerate(_block_spans(comp), start=1):
            yield side, k, p, q


def test_spectrum_and_block_measures_match_the_definition():
    # the slow route: one measure call per admissible pair, each a walk
    for m in _frobenius(8):
        dims = Counter(measure(m, i, j) for i, j in admissible_pairs(m))
        dims[0] -= 1
        assert spectrum(m) == +dims
        for side, k, p, q in _blocks(m):
            strict = [
                measure(m, i, j)
                for i in range(p, q + 1)
                for j in (range(p, i) if side == "top" else range(i + 1, q + 1))
            ]
            assert block_measures(m, side, k) == tuple(sorted(strict + [0] * ((q - p + 1) // 2)))


def test_spectrum_is_the_union_of_block_measures():
    for m in _frobenius(10):
        union = Counter()
        for side, k, _, _ in _blocks(m):
            union.update(block_measures(m, side, k))
        assert union == spectrum(m)


def test_classify_golden():
    flags = classify({-2: 1, -1: 2, 0: 4, 1: 4, 2: 2, 3: 1})
    assert (flags.symmetric, flags.unbroken, flags.unimodal, flags.strictly_unimodal) == (
        True,
        True,
        True,
        True,
    )
    flags = classify({0: 1, 1: 1})
    assert (flags.symmetric, flags.unbroken, flags.unimodal, flags.strictly_unimodal) == (
        True,
        True,
        True,
        True,
    )
    flags = classify({-1: 1, 0: 1, 1: 1, 2: 1})
    assert flags.symmetric and flags.unbroken and flags.unimodal
    assert not flags.strictly_unimodal


def test_classify_detects_breaks_and_asymmetry():
    assert not classify({-1: 1, 1: 1, 2: 1}).unbroken
    assert not classify({0: 2, 1: 1}).symmetric
    assert not classify({-1: 3, 0: 1, 1: 1, 2: 3}).unimodal


def test_classify_empty_spectrum():
    flags = classify({})
    assert flags.symmetric and flags.unbroken and flags.unimodal and flags.strictly_unimodal


def test_block_measures_golden():
    ms = block_measures(parse_type("1|4/2|3"), "top", 2)
    assert ms == (-2, -1, 0, 0, 1, 1, 2, 3)
    assert block_measures(parse_type("1|4/2|3"), "top", 1) == ()


def test_block_measures_symmetric_unbroken_small():
    for n in range(1, 10):
        for m in enumerate_meanders(n):
            if index_naive(m) != 0:
                continue
            for side, comp in (("top", m.top), ("bottom", m.bottom)):
                for k in range(1, len(comp) + 1):
                    ms = block_measures(m, side, k)
                    if not ms:
                        continue
                    lo, hi = ms[0], ms[-1]
                    assert hi == 1 - lo
                    counts = {e: ms.count(e) for e in set(ms)}
                    assert all(e in counts for e in range(lo, hi + 1))
                    assert all(counts[e] == counts.get(1 - e) for e in counts)


def test_theorem_nine_small():
    for n in range(1, 11):
        for m in enumerate_meanders(n):
            if index_naive(m) != 0:
                continue
            flags = classify(spectrum(m))
            assert flags.symmetric and flags.unbroken


def test_spectrum_json_shape():
    data = spectrum_to_json(spectrum(parse_type("1|4/2|3")))
    assert data["eigenvalues"][0] == {"e": -2, "dim": 1}
    assert data["symmetric"] is True
    assert data["strictly_unimodal"] is True


def _arcs(top, bottom):
    """Oriented arcs (tail, head): top arcs point left, bottom arcs right."""
    out = []
    for comp, leftward in ((top, True), (bottom, False)):
        pos = 1
        for k in comp:
            for d in range(k // 2):
                u, v = pos + d, pos + k - 1 - d
                out.append((v, u) if leftward else (u, v))
            pos += k
    return out


def _reference_walk(top, bottom):
    """(phi, root, cycles, paths) by union-find and a search from each path
    end: a component with as many arcs as vertices is a cycle, and a path
    is rooted at its end of least index."""
    n = sum(top)
    arcs = _arcs(top, bottom)
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    steps = {v: [] for v in range(1, n + 1)}
    for u, v in arcs:
        parent[find(u)] = find(v)
        steps[u].append((v, 1))
        steps[v].append((u, -1))
    members = {}
    for v in range(1, n + 1):
        members.setdefault(find(v), []).append(v)
    arcs_in = Counter(find(u) for u, _ in arcs)
    phi = [None] * (n + 1)
    root = [0] * (n + 1)
    cycles = 0
    for r, vs in members.items():
        if arcs_in[r] == len(vs):
            cycles += 1
            continue
        end = min(v for v in vs if len(steps[v]) < 2)
        phi[end], root[end] = 0, end
        stack = [end]
        while stack:
            u = stack.pop()
            for v, d in steps[u]:
                if not root[v]:
                    phi[v], root[v] = phi[u] + d, end
                    stack.append(v)
    return phi, root, cycles, len(members) - cycles


def test_potentials_follow_paths():
    rng = random.Random(20)
    meanders = [MeanderType((), ())]
    meanders += [MeanderType((c,), (c,)) for c in range(1, 13)]
    meanders += [m for n in range(1, 9) for m in enumerate_meanders(n)]
    meanders += [random_meander(rng, 40) for _ in range(500)]
    for m in meanders:
        assert _walk(*_partners(m.top, m.bottom)) == _reference_walk(m.top, m.bottom), m


def test_frobenius_gate_matches_the_signature_route():
    # the winding-down parameters sum to the index plus one, by a route
    # that builds no partner arrays (the empty meander has no signature)
    for m in (m for n in range(1, 9) for m in enumerate_meanders(n)):
        total = sum(_parameters(m))
        if total == 1:
            assert _require_frobenius(m) == _walk(*_partners(m.top, m.bottom))[0]
        else:
            with pytest.raises(NotFrobeniusError) as exc:
                _require_frobenius(m)
            assert exc.value.index == total - 1


def test_frobenius_gate_shared_by_four_routes():
    meanders = [MeanderType((), ())]
    for n in range(1, 7):
        meanders += [m for m in enumerate_meanders(n) if index_naive(m) != 0]
    # principal_element, which ad_spectrum calls, shares the gate too
    routes = (
        spectrum,
        lambda m: block_measures(m, "top", 1),
        principal_element,
        ad_spectrum,
        cybe_residual,
    )
    for m in meanders:
        for route in routes:
            with pytest.raises(NotFrobeniusError) as exc:
                route(m)
            assert exc.value.index == index_naive(m)
            assert str(exc.value) == f"not Frobenius (index {index_naive(m)})"


def test_frobenius_gate_matches_the_brute_index():
    # 1|2/1|2: vertex 1 is a lone path and a cycle runs through the last
    # vertex, so a count of the last root alone would also count the
    # padding 0 of root[0] and accept it
    with pytest.raises(NotFrobeniusError, match=r"^not Frobenius \(index 2\)$"):
        _require_frobenius(parse_type("1|2/1|2"))
    assert _require_frobenius(parse_type("1/1")) == [None, 0]
    with pytest.raises(NotFrobeniusError) as exc:
        _require_frobenius(MeanderType((), ()))
    assert exc.value.index == -1
    assert str(exc.value) == "not Frobenius (index -1)"
    for top, bottom, ix in brute_pairs(8):
        m = MeanderType(top, bottom)
        if ix == 0:
            assert _require_frobenius(m) == _walk(*_partners(top, bottom))[0]
        else:
            with pytest.raises(NotFrobeniusError) as exc:
                _require_frobenius(m)
            assert exc.value.index == ix


def test_frobenius_gate_is_the_one_walk(monkeypatch):
    module = importlib.import_module("meanderkit.spectrum")
    core = importlib.import_module("meanderkit.core")
    calls = []
    real_partners = module._partners

    def partners(*args):
        calls.append(args)
        return real_partners(*args)

    def second_walk(*args):
        raise AssertionError(f"a second index walk ran on {args}")

    # the gate reads the index off its own walk: spectrum imports no
    # other index route, and core's would fail if reached
    assert not hasattr(module, "index_naive") and not hasattr(module, "_index")
    monkeypatch.setattr(module, "_partners", partners)
    monkeypatch.setattr(core, "index_naive", second_walk)
    monkeypatch.setattr(core, "_index", second_walk)
    goldens = [
        (lambda: spectrum(parse_type("1|4/2|3")), {-2: 1, -1: 2, 0: 4, 1: 4, 2: 2, 3: 1}),
        (lambda: spectrum(parse_type("1/1")), {}),
        (lambda: spectrum(parse_type("1|2/3")), {-1: 1, 0: 2, 1: 2, 2: 1}),
        (lambda: block_measures(parse_type("1|4/2|3"), "top", 2), (-2, -1, 0, 0, 1, 1, 2, 3)),
        (lambda: block_measures(parse_type("1|4/2|3"), "top", 1), ()),
        (lambda: block_measures(parse_type("1|2/3"), "bottom", 1), (-1, 0, 1, 2)),
    ]
    for route, golden in goldens:
        calls.clear()
        assert route() == golden
        assert len(calls) == 1
    # the failure path builds the arrays once too and names the exact index
    for text, ix in (("3/3", 2), ("2|1/2|1", 2), ("5/5", 4), ("1|2/1|2", 2)):
        for route in (spectrum, lambda m: block_measures(m, "top", 1)):
            calls.clear()
            with pytest.raises(NotFrobeniusError, match=rf"^not Frobenius \(index {ix}\)$"):
                route(parse_type(text))
            assert len(calls) == 1


def test_spectrum_budget_comes_first(monkeypatch):
    # 300000000/300000000 has 9 * 10**16 pairs and index 299999999: the
    # budget, which needs only the block sizes, refuses it before the
    # Frobenius check would build arrays over its vertices
    for m in (MeanderType((300000000,), (300000000,)), parse_type("1155|1156/2311")):
        for route in (spectrum, lambda m: block_measures(m, "bottom", 1)):
            with pytest.raises(PreconditionError) as exc:
                route(m)
            assert "exceeds the spectrum budget 4000000" in str(exc.value)
    # the package exports the function spectrum under the module's name
    module = importlib.import_module("meanderkit.spectrum")
    monkeypatch.setattr(module, "SPECTRUM_MAX_DIM", 7)
    assert spectrum(parse_type("1|2/3")) == {-1: 1, 0: 2, 1: 2, 2: 1}
    assert block_measures(parse_type("1|2/3"), "bottom", 1) == (-1, 0, 1, 2)
    with pytest.raises(PreconditionError, match="seaweed dimension 15 exceeds"):
        spectrum(parse_type("1|4/2|3"))
