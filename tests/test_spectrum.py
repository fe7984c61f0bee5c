import importlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from meanderkit.spectrum import SpectrumFlags, _count_block, _require_frobenius
from meanderkit.winding import _meander_tree, _parameters, generate_frobenius

from conftest import _pair_measures, brute_pairs, random_meander


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


def _both_readings(top, bottom):
    """(phi, p, q, top) of every block of a meander, read as it lies and
    with phi negated and the side turned, as lab._child passes a block
    below an odd number of flips."""
    phi = _walk(*_partners(top, bottom))[0]
    turned = [None] + [-f for f in phi[1:]]
    for comp, is_top in ((top, True), (bottom, False)):
        for p, q in _block_spans(comp):
            yield phi, p, q, is_top
            yield turned, p, q, not is_top


def _matches_the_pair_loop(blocks):
    """Compare _count_block with the pair loop on each block, and check
    that it adds to the measures of the blocks before it; returns the
    block sizes."""
    added, total = {}, Counter()
    sizes = []
    for block in blocks:
        dims = _count_block(*block, {})
        assert dims == _pair_measures(*block, {}), block[1:]
        assert _count_block(*block, added) is added
        total.update(dims)
        sizes.append(block[2] - block[1] + 1)
    assert added == total
    return sizes


def test_block_measures_match_the_pair_loop_to_order_12(monkeypatch):
    # each route on its own too: every block by the product, and every
    # block by the loop over arc pairs
    module = importlib.import_module("meanderkit.spectrum")
    for least in (module._PRODUCT_MIN_ARCS, 1, 10**9):
        monkeypatch.setattr(module, "_PRODUCT_MIN_ARCS", least)
        meanders = 0
        for top, bottom, _, _, _ in _meander_tree(12, 0, 24):
            meanders += 1
            _matches_the_pair_loop(_both_readings(top, bottom))
        assert meanders == 8609


def test_block_measures_match_the_pair_loop_on_generated_meanders():
    # blocks of a few to some hundreds of vertices, on each side of the
    # product threshold of spectrum._count_block
    module = importlib.import_module("meanderkit.spectrum")
    sizes = []
    for moves in (10, 12, 16):
        for seed in range(30):
            m = generate_frobenius(moves, seed)
            if m.n <= 3000:
                sizes += _matches_the_pair_loop(_both_readings(m.top, m.bottom))
    arcs = [k // 2 for k in sizes]
    assert sum(h >= module._PRODUCT_MIN_ARCS for h in arcs) > 200
    assert sum(1 < h < module._PRODUCT_MIN_ARCS for h in arcs) > 100
    assert max(sizes) > 1000


def test_block_measures_are_symmetric_by_construction():
    # _count_block reads only the arc starts and the centre, and writes
    # each measure with its mirror 1 - e: any potentials give a multiset
    # symmetric about one half, and only its being unbroken, which the
    # meanders' potentials give, can fail
    rng = random.Random(26)
    broken = 0
    for _ in range(300):
        k = rng.randint(2, 40)
        h = k // 2
        starts = [rng.randint(-30, 30) for _ in range(h)]
        # a bottom block of k vertices whose arcs point from each start
        phi = [None] + starts + [rng.randint(-30, 30)] * (k % 2)
        phi += [s + 1 for s in reversed(starts)]
        dims = _count_block(phi, 1, k, False, {})
        assert dims == _pair_measures(phi, 1, k, False, {})
        assert classify(dims).symmetric
        broken += not classify(dims).unbroken
    assert broken > 100


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


def _slow_classify(s):
    """The slow route of classify: one pass over the eigenvalue range per
    flag, each dimension read from the dict."""
    if not s:
        return SpectrumFlags(True, True, True, True)
    lo = min(s)
    hi = max(s)
    d = s.get
    unbroken = all(e in s for e in range(lo, hi + 1))
    symmetric = hi == 1 - lo and all(d(e, 0) == d(1 - e, 0) for e in range(lo, hi + 1))
    unimodal = all(d(e, 0) <= d(e + 1, 0) for e in range(lo, 0)) and all(
        d(e, 0) >= d(e + 1, 0) for e in range(1, hi)
    )
    strictly = all(d(e, 0) < d(e + 1, 0) for e in range(lo, 0)) and all(
        d(e, 0) > d(e + 1, 0) for e in range(1, hi)
    )
    return SpectrumFlags(symmetric, unbroken, unimodal, strictly)


@settings(max_examples=1000)
@given(st.dictionaries(st.integers(-7, 8), st.integers(0, 4), max_size=9))
@example({})
@example({4: 3})
@example({0: 0, 1: 0})
@example({-1: 2, 0: 0, 1: 0, 2: 2})
@example({2: 1, 3: 1})
@example({3: 0, 5: 0})
@example({-3: 1, -2: 2})
@example({-1: 0})
def test_classify_matches_the_slow_route(dims):
    # empty, one key, zero counts, lo > 1 and hi < 0 among them
    assert classify(dims) == _slow_classify(dims)


def test_classify_matches_the_slow_route_on_spectra_and_blocks():
    seen = set()
    for m in _frobenius(10):
        dims = spectrum(m)
        multisets = [dims] + [Counter(block_measures(m, side, k)) for side, k, _, _ in _blocks(m)]
        for dims in multisets:
            key = frozenset(dims.items())
            if key not in seen:
                seen.add(key)
                assert classify(dims) == _slow_classify(dims), dims
    assert len(seen) == 245


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
    # 300000000/300000000 has index 299999999: the budget, which needs
    # only the block sizes, refuses it before the Frobenius check would
    # build arrays over its vertices
    for m in (MeanderType((300000000,), (300000000,)), parse_type("1|200000/200001")):
        for route in (spectrum, lambda m: block_measures(m, "bottom", 1)):
            with pytest.raises(PreconditionError) as exc:
                route(m)
            assert f"order {m.n} exceeds the spectrum budget 200000" == str(exc.value)
    # the package exports the function spectrum under the module's name
    module = importlib.import_module("meanderkit.spectrum")
    monkeypatch.setattr(module, "SPECTRUM_MAX_ORDER", 3)
    assert spectrum(parse_type("1|2/3")) == {-1: 1, 0: 2, 1: 2, 2: 1}
    assert block_measures(parse_type("1|2/3"), "bottom", 1) == (-1, 0, 1, 2)
    with pytest.raises(PreconditionError, match="^order 5 exceeds the spectrum budget 3$"):
        spectrum(parse_type("1|4/2|3"))


def test_spectrum_budget_follows_the_order():
    # 1|19999/20000 has seaweed dimension 400 000 000 but one path of
    # order 20 000, and its measures come from the potentials of 19 999 arc
    # starts; its spectrum is symmetric and unbroken and sums to the
    # dimension less one
    dims = spectrum(parse_type("1|19999/20000"))
    flags = classify(dims)
    assert flags.symmetric and flags.unbroken
    assert sum(dims.values()) == (1 + 19999**2 + 20000**2) // 2 - 1


def test_block_measures_budget_reads_the_block_size():
    # block_measures lists each measure, so its own budget reads the size
    # of the block before the walk: a block of 20 000 has 200 000 000
    # measures, refused before 20000/20000 would be found not Frobenius
    message = "^block measure count 200000000 exceeds the spectrum budget 4000000$"
    for text in ("1|19999/20000", "20000/20000"):
        with pytest.raises(PreconditionError, match=message):
            block_measures(parse_type(text), "bottom", 1)
    assert block_measures(parse_type("1|19999/20000"), "top", 1) == ()
    assert len(block_measures(parse_type("1|2827/2828"), "bottom", 1)) == 3998792
