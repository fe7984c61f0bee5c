"""Acceptance battery.

One test per criterion, each printing a PASS line on success (run with
``pytest -s tests/test_acceptance.py`` to watch them).  All comparisons are
exact; the integer and rational arithmetic leaves no tolerances to tune.
Stated wall-clock budgets are asserted too.
"""

import random
import time

from meanderkit import (
    MeanderType,
    ad_spectrum,
    apply_up_move,
    block_measures,
    classify,
    cybe_residual,
    enumerate_meanders,
    family_biparabolic,
    family_parabolic,
    five_block_meanders,
    generate_frobenius,
    hat_reversed,
    index_from_signature,
    index_naive,
    index_oracle,
    is_frobenius,
    parse_type,
    parse_up_moves,
    principal_element,
    scan_unimodality,
    search_gcd_conditions,
    seaweed_positions,
    signature_refined,
    signature_simplified,
    signature_to_text,
    spectrum,
    step_refined_full,
    wind_up,
)
from meanderkit.core import _compositions, _index, _partners, _walk
from meanderkit.spectrum import _spectrum_raw

from conftest import brute_pairs, random_meander


def _report(k: int, label: str) -> None:
    print(f"ACCEPTANCE {k}: PASS ({label})")


def test_criterion_01_frobenius_signature_golden():
    t0 = time.perf_counter()
    sig = signature_simplified(parse_type("6|1/2|3|2"))
    elapsed = time.perf_counter() - t0
    assert signature_to_text(sig) == "P0 F0 R0 B0 F0 B0 F0 B0 C0(1)"
    assert is_frobenius(sig)
    assert elapsed < 0.010
    _report(1, "signature 6|1/2|3|2")


def test_criterion_02_nonfrobenius_signature_and_windup():
    m = parse_type("16|2|4/5|17")
    sig = signature_simplified(m)
    assert signature_to_text(sig) == "P0 F0 P0 C0(5) P0 F0 B0 C0(2)"
    assert index_from_signature(sig) == 6
    rebuilt = wind_up(parse_up_moves("~C0(2) ~B0 ~F0 ~P0 ~C0(5) ~P0 ~F0 ~P0"))
    assert rebuilt == m
    _report(2, "signature 16|2|4/5|17 and its wind-up")


def test_criterion_03_index_triple_agreement():
    t0 = time.perf_counter()
    checked = 0
    for top, bottom, naive in brute_pairs(10):
        m = MeanderType(top, bottom)
        assert index_from_signature(signature_simplified(m)) == naive
        assert index_from_signature(signature_refined(m)) == naive
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == sum(4 ** (n - 1) for n in range(1, 11))
    assert elapsed < 120
    _report(3, f"{checked} meanders, {elapsed:.1f}s")


def test_criterion_04_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for trial in range(200):
        m = random_meander(rng, 8)
        assert index_oracle(m, trials=5, seed=trial) == index_naive(m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(4, f"200 random meanders, {elapsed:.1f}s")


def test_criterion_05_spectrum_goldens():
    golden = {-2: 1, -1: 2, 0: 4, 1: 4, 2: 2, 3: 1}
    m = parse_type("1|4/2|3")
    assert spectrum(m) == golden
    assert ad_spectrum(m) == golden
    fhat = principal_element(parse_type("1|2/3"))
    assert fhat.is_diagonal
    assert [int(x) for x in fhat.diagonal()] == [1, -1, 0]
    _report(5, "spectrum 1|4/2|3 and principal element 1|2/3")


def test_criterion_06_spectrum_shape_exhaustive():
    t0 = time.perf_counter()
    frobenius_count = 0
    for n in range(1, 13):
        comps = list(_compositions(n))
        for top in comps:
            for bottom in comps:
                if _index(top, bottom) != 0:
                    continue
                frobenius_count += 1
                m = MeanderType(top, bottom)
                flags = classify(_spectrum_raw(_walk(*_partners(top, bottom))[0], top, bottom))
                assert flags.symmetric and flags.unbroken, f"spectrum shape fails at {m}"
                for side, comp in (("top", top), ("bottom", bottom)):
                    for k in range(1, len(comp) + 1):
                        ms = block_measures(m, side, k)
                        if not ms:
                            continue
                        lo, hi = ms[0], ms[-1]
                        counts: dict[int, int] = {}
                        for e in ms:
                            counts[e] = counts.get(e, 0) + 1
                        assert hi == 1 - lo and all(
                            counts.get(e, 0) == counts.get(1 - e, 0)
                            for e in range(lo, hi + 1)
                        ), f"block symmetry fails at {m} {side} {k}"
                        assert all(
                            e in counts for e in range(lo, hi + 1)
                        ), f"block unbroken fails at {m} {side} {k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(6, f"{frobenius_count} Frobenius meanders to n=12, {elapsed:.1f}s")


def test_criterion_07_gcd_formulas_exhaustive():
    t0 = time.perf_counter()
    from math import gcd

    for total in range(2, 41):
        for a in range(1, total):
            b = total - a
            assert gcd(a, b) - 1 == _index((a, b), (total,))
    for total in range(2, 41):
        for a in range(1, total):
            b = total - a
            for c in range(1, total):
                d = total - c
                assert gcd(a + b, b + c) - 1 == _index((a, b), (c, d))
        for a in range(1, total - 1):
            for b in range(1, total - a):
                c = total - a - b
                if c < 1:
                    continue
                assert gcd(a + b, b + c) - 1 == _index((total,), (a, b, c))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(7, f"two- and four-block formulas to n=40, {elapsed:.1f}s")


def test_criterion_08_families():
    from math import gcd

    rng = random.Random(77)
    built = 0
    while built < 100:
        a = 2 * rng.randint(1, 5)
        b = rng.choice([x for x in range(1, 12) if gcd(a, x) == 1])
        k = rng.randint(1, 5)
        if built % 2 == 0:
            m = family_parabolic(a, k, b)
        else:
            copies = rng.randint(0, 3)
            kk = rng.randint(0, 5)
            if kk + copies == 0:
                continue
            m = family_biparabolic(a, b, kk, copies)
        assert index_naive(m) == 0, f"family instance {m} not Frobenius"
        built += 1
    _report(8, "100 family instances all index 0")


def test_criterion_09_round_trips():
    rng = random.Random(424242)
    for _ in range(1000):
        m = random_meander(rng, 40)
        assert wind_up(hat_reversed(signature_simplified(m))) == m
    for n in range(1, 11):
        for m in enumerate_meanders(n):
            step = step_refined_full(m)
            if step.result.n == 0:
                continue
            assert apply_up_move(step.undo, step.result) == m
    _report(9, "1000 simplified round trips and exhaustive refined inversion")


def test_criterion_10_cybe():
    t0 = time.perf_counter()
    cases = [parse_type("1|2/3"), parse_type("1|4/2|3")]
    rng = random.Random(1001)
    while len(cases) < 10:
        m = generate_frobenius(rng.randint(2, 12), rng.randrange(2**30))
        if seaweed_positions(m).sl_dim <= 20 and m not in cases:
            cases.append(m)
    for m in cases:
        assert seaweed_positions(m).sl_dim <= 20
        assert cybe_residual(m), f"CYBE residual nonzero for {m}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(10, f"10 Frobenius meanders, {elapsed:.1f}s")


def test_criterion_11_conjecture_scans():
    frob, nonfrob = five_block_meanders(18)
    report = search_gcd_conditions(2, frob, nonfrob)
    assert report.survivors == [], f"unexpected survivors: {report.survivors[:3]}"
    uni = scan_unimodality(12)
    assert uni.counterexamples == []
    _report(
        11,
        f"gcd scan {report.checked} conditions, unimodality {uni.checked} spectra",
    )
