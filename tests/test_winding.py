import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanderkit import (
    FourBlockType,
    MeanderType,
    Move,
    ParseError,
    PreconditionError,
    WindUpError,
    UpMove,
    apply_up_move,
    components,
    build_graph,
    enumerate_meanders,
    family_biparabolic,
    family_parabolic,
    generate_frobenius,
    hat_reversed,
    homotopy_type,
    index_four_block,
    index_from_signature,
    index_naive,
    index_two_block,
    is_frobenius,
    parse_signature,
    parse_type,
    parse_up_moves,
    signature_refined,
    signature_simplified,
    signature_to_text,
    step_refined,
    step_refined_full,
    step_simplified,
    up_moves_to_text,
    wind_up,
)

from meanderkit.core import _index
from meanderkit.winding import (
    _apply_up_raw,
    _meander,
    _meander_tree,
    _reduce,
    _sides,
    _step_simplified_raw,
    _valid_up_moves,
)

from conftest import brute_pairs, compositions, random_meander


# --- simplified winding down -------------------------------------------------

def test_step_simplified_examples():
    mv, nxt = step_simplified(parse_type("6|1/2|3|2"))
    assert str(mv) == "P0" and str(nxt) == "2|2|1/3|2"
    mv, nxt = step_simplified(parse_type("3/3"))
    assert str(mv) == "C0(3)" and nxt == MeanderType((), ())
    mv, nxt = step_simplified(parse_type("10/5|3|2"))
    assert str(mv) == "B0" and nxt.top[0] == 5


def test_signature_frobenius_example():
    sig = signature_simplified(parse_type("6|1/2|3|2"))
    assert signature_to_text(sig) == "P0 F0 R0 B0 F0 B0 F0 B0 C0(1)"
    assert is_frobenius(sig)
    assert index_from_signature(sig) == 0


def test_signature_non_frobenius_example():
    sig = signature_simplified(parse_type("16|2|4/5|17"))
    assert signature_to_text(sig) == "P0 F0 P0 C0(5) P0 F0 B0 C0(2)"
    assert not is_frobenius(sig)
    assert index_from_signature(sig) == 6


def test_signature_single_vertex():
    assert signature_to_text(signature_simplified(parse_type("1/1"))) == "C0(1)"


def test_index_from_signature_examples():
    assert index_from_signature(parse_signature("C0(3)")) == 2
    assert index_from_signature([]) == -1


def test_is_frobenius_examples():
    assert not is_frobenius(parse_signature("C0(2)"))
    assert not is_frobenius([])


def test_signature_empty_meander_rejected():
    with pytest.raises(PreconditionError):
        signature_simplified(MeanderType((), ()))


# --- refined winding down ----------------------------------------------------

def test_step_refined_internal_component():
    mv, nxt = step_refined(parse_type("9/2|5|2"))
    assert str(mv) == "IC(5)" and str(nxt) == "4/2|2"


def test_step_refined_internal_block():
    # first top block 16 over 3|5|4|...: the gap after v8 sits at the center,
    # so the block ending there (size 5) is eliminated
    mv, nxt = step_refined(MeanderType((16,), (3, 5, 4, 4)))
    assert str(mv) == "IB" and nxt == MeanderType((11,), (3, 4, 4))


def test_step_refined_internal_rotation():
    # a1 = 14 over 3|6|...: center block of size 6, near end distance 3/2
    mv, nxt = step_refined(MeanderType((14,), (3, 6, 5)))
    assert str(mv) == "IR" and nxt == MeanderType((12,), (3, 4, 5))


def test_refined_signature_examples():
    assert signature_to_text(signature_refined(parse_type("1/1"))) == "C(1)"
    sig = signature_refined(parse_type("9/2|5|2"))
    assert str(sig[0]) == "IC(5)"
    assert index_from_signature(sig) == index_naive(parse_type("9/2|5|2"))


def test_refined_frobenius_signature_shape():
    for n in range(1, 11):
        for m in enumerate_meanders(n):
            sig = signature_refined(m)
            assert is_frobenius(sig) == (index_naive(m) == 0)


def test_triple_index_agreement_small():
    for n in range(1, 9):
        for m in enumerate_meanders(n):
            naive = index_naive(m)
            assert index_from_signature(signature_simplified(m)) == naive
            assert index_from_signature(signature_refined(m)) == naive


def test_component_structure_preserved_by_non_elimination_moves():
    for n in range(1, 10):
        for m in enumerate_meanders(n):
            mv, nxt = step_refined(m)
            before = components(build_graph(m))
            if mv.c is None:
                assert components(build_graph(nxt)) == before
            else:
                after = components(build_graph(nxt)) if nxt.n else None
                drop_before = 2 * before.cycles + before.paths
                drop_after = 2 * after.cycles + after.paths if after else 0
                assert drop_before - drop_after == mv.c
            mv, nxt = step_simplified(m)
            if mv.c is None:
                assert components(build_graph(nxt)) == before


def test_no_consecutive_flips():
    for n in range(1, 9):
        for m in enumerate_meanders(n):
            for sig in (signature_simplified(m), signature_refined(m)):
                for a, b in zip(sig, sig[1:]):
                    assert not (a.tag in ("F", "F0") and b.tag in ("F", "F0"))


# --- homotopy type -------------------------------------------------------------

def test_homotopy_examples():
    ht = homotopy_type(parse_type("3/3"))
    assert ht.parameters() == (3,)
    assert str(ht) == "(o.)"
    ht = homotopy_type(parse_type("2|1/2|1"))
    assert ht.parameters() == (2, 1)
    assert str(ht) == "(o) (.)"
    ht = homotopy_type(parse_type("16|2|4/5|17"))
    assert ht.parameters() == (5, 2)


def test_homotopy_sums_to_index_plus_one():
    for n in range(1, 10):
        for m in enumerate_meanders(n):
            assert sum(homotopy_type(m).parameters()) == index_naive(m) + 1


# --- winding up ----------------------------------------------------------------

def test_wind_up_golden():
    seq = parse_up_moves("~C0(2) ~B0 ~F0 ~P0 ~C0(5) ~P0 ~F0 ~P0")
    assert wind_up(seq) == parse_type("16|2|4/5|17")


def test_wind_up_trivial():
    assert wind_up(parse_up_moves("~C(1)")) == parse_type("1/1")
    assert wind_up(parse_up_moves("~C(1) ~B")) == parse_type("2/1|1")


def test_wind_up_requires_component_creation_first():
    with pytest.raises(WindUpError) as exc:
        wind_up(parse_up_moves("~B ~C(1)"))
    assert exc.value.step == 1


def test_wind_up_reports_failing_step():
    # ~R needs a1 > b1; after ~C(2) the meander is 2/2
    with pytest.raises(WindUpError) as exc:
        wind_up(parse_up_moves("~C(2) ~R"))
    assert exc.value.step == 2


def test_a_bool_move_parameter_is_refused():
    # True == 1, but C0(True) would not read back
    with pytest.raises(ParseError):
        Move("C0", True)


def test_bool_up_move_sizes_are_refused():
    # True == 1, but True/True would not read back: the up-move is refused
    # when it is built, before wind_up sees it
    for tag in ("~C0", "~C", "~IC"):
        with pytest.raises(ParseError, match="positive"):
            UpMove(tag, c=True)
    assert wind_up([UpMove("~C0", 1), UpMove("~B0"), UpMove("~IC", c=1)]).n == 3


def test_moves_are_slotted_and_survive_pickle_and_copy():
    for move in (Move("C0", 3), Move("IR"), UpMove("~IB", block=2), UpMove("~C", 1), UpMove("~R0")):
        assert hasattr(type(move), "__slots__") and not hasattr(move, "__dict__")
        for back in (pickle.loads(pickle.dumps(move)), copy.deepcopy(move)):
            assert back == move and hash(back) == hash(move)
            assert repr(back) == repr(move) and str(back) == str(move)


@pytest.mark.parametrize(
    "tag, c, block",
    [
        ("~X", None, None),  # not a tag
        ("~B0", 5, None),  # a size on a move without one
        ("~C0", None, None),  # no size on a creation
        ("~C0", 0, None),  # a size below 1
        ("~F0", None, 3),  # a block on a move without one
        ("~C0", 2, 1),
        ("~IB", None, None),  # no block on ~IB
        ("~IB", None, 0),  # a block below 1
        ("~IR", None, True),
    ],
)
def test_up_moves_are_checked_when_built(tag, c, block):
    # each would print text that parse_up_moves refuses, or be ignored
    with pytest.raises(ParseError):
        UpMove(tag, c, block)


def test_a_stray_up_move_parameter_is_not_ignored():
    # wind_up once applied ~B0 and dropped the 5, building 4/2|2
    with pytest.raises(ParseError, match="^up-move ~B0 parameter mismatch: 5$"):
        wind_up([UpMove("~C0", 2), UpMove("~B0", c=5)])


def test_every_built_up_move_reads_back():
    # what UpMove accepts, up_moves_to_text writes so that parse_up_moves
    # reads back the same moves
    moves = [UpMove(tag) for tag in ("~F0", "~B0", "~R0", "~P0", "~F", "~B", "~R", "~P", "~IR")]
    moves += [UpMove(tag, c) for tag in ("~C0", "~C", "~IC") for c in (1, 7)]
    moves += [UpMove(tag, block=k) for tag in ("~IB", "~IR") for k in (1, 4)]
    assert parse_up_moves(up_moves_to_text(moves)) == moves


def test_up_move_text_round_trip():
    text = "~C0(2) ~B0 ~F0 ~P0 ~C0(5) ~P0 ~F0 ~P0"
    assert up_moves_to_text(parse_up_moves(text)) == text
    text = "~C(1) ~IB(2) ~IR ~IR(3) ~IC(4)"
    assert up_moves_to_text(parse_up_moves(text)) == text


def test_simplified_round_trip_random():
    rng = random.Random(20240613)
    for _ in range(400):
        m = random_meander(rng, 40)
        rebuilt = wind_up(hat_reversed(signature_simplified(m)))
        assert rebuilt == m


def test_refined_single_step_inversion_exhaustive():
    for n in range(1, 10):
        for m in enumerate_meanders(n):
            step = step_refined_full(m)
            if step.result.n == 0:
                continue
            assert apply_up_move(step.undo, step.result) == m


def test_refined_full_round_trip_random():
    rng = random.Random(5150)
    for _ in range(300):
        m = random_meander(rng, 30)
        assert wind_up(reversed(_refined_undos(m))) == m


def test_up_ir_defaults_to_center_block():
    # expanding the block under the center of the first top block
    m = apply_up_move(UpMove("~IR"), MeanderType((12,), (3, 4, 5)))
    assert m == MeanderType((14,), (3, 6, 5))


def test_refined_single_step_inversion_includes_boundary_cases():
    # center vertex starting its bottom block, and a center block extending
    # past the first top block
    for text in ["9/4|5", "5|5/2|8", "6/2|1|3", "4|1/1|4"]:
        m = parse_type(text)
        step = step_refined_full(m)
        assert apply_up_move(step.undo, step.result) == m


# --- enumeration and generation ------------------------------------------------

def test_enumerate_counts():
    assert [str(m) for m in enumerate_meanders(1)] == ["1/1"]
    two = {str(m) for m in enumerate_meanders(2)}
    assert two == {"2/2", "2/1|1", "1|1/2", "1|1/1|1"}
    assert sum(1 for _ in enumerate_meanders(5)) == 256


def test_enumerate_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        list(enumerate_meanders(0))


def test_enumerate_refuses_a_bool_order():
    # True == 1, but enumerate_meanders(True) would list order 1
    with pytest.raises(PreconditionError, match="order must be >= 1"):
        list(enumerate_meanders(True))


def test_generate_frobenius_refuses_a_bool_move_count():
    with pytest.raises(PreconditionError, match="moves must be >= 0"):
        generate_frobenius(True, 1)


def _tree_sorted(n_max, max_index, max_blocks):
    """The reverse search, with no meander twice, sorted as brute_pairs."""
    found = [entry[:3] for entry in _meander_tree(n_max, max_index, max_blocks)]
    assert len(found) == len(set(found))
    return sorted(found, key=lambda item: (sum(item[0]), item[:2]))


def test_meander_tree_matches_brute_loop():
    # every pair of order <= n once, with the index read from its path
    for n in range(0, 9):
        assert _tree_sorted(n, n, 2 * n) == brute_pairs(n)
    assert len(brute_pairs(8)) == sum(4 ** (n - 1) for n in range(1, 9))


def test_meander_tree_budgets_match_brute_filter():
    brute = brute_pairs(9)
    for max_index in range(3):
        want = [item for item in brute if item[2] <= max_index]
        assert _tree_sorted(9, max_index, 18) == want
    for max_blocks in range(2, 7):
        want = [item for item in brute if len(item[0]) + len(item[1]) <= max_blocks]
        assert _tree_sorted(9, 9, max_blocks) == want
    assert list(_meander_tree(9, -1, 18)) == list(_meander_tree(9, 9, 1)) == []


def _frobenius_tree(n_max):
    """The reference walk: (top, bottom) of every Frobenius meander of
    order <= n_max by reverse search from 1/1, taking only the ~F0, ~B0,
    ~R0 and ~P0 children."""
    if n_max < 1:
        return
    stack = [((1,), (1,), 1)]
    while stack:
        top, bottom, n = stack.pop()
        yield top, bottom
        a1 = top[0]
        b1 = bottom[0]
        if a1 > b1:
            stack.append((bottom, top, n))
        if n + a1 <= n_max:
            stack.append(((2 * a1,) + top[1:], (a1,) + bottom, n + a1))
        if a1 > b1 and n + a1 - b1 <= n_max:
            stack.append(((2 * a1 - b1,) + top[1:], (a1,) + bottom[1:], n + a1 - b1))
        if len(top) > 1 and n + top[1] <= n_max:
            a2 = top[1]
            stack.append(((a1 + 2 * a2,) + top[2:], (a2,) + bottom, n + a2))


def test_index_zero_slice_is_the_frobenius_tree_in_order():
    # the scans and the oracle's samples read the slice in this order
    for n in range(0, 13):
        tree = [(top, bottom, 0) for top, bottom in _frobenius_tree(n)]
        assert [entry[:3] for entry in _meander_tree(n, 0, 2 * n)] == tree


def _assert_each_parent_is_the_down_step(entries):
    """The parent of an entry at depth d, the last entry before it at depth
    d - 1 or the empty meander at depth 0, is its simplified down-step,
    whose inverse is the entry's tag; and that up-move, with c = a1 for
    ~C0, makes the entry from the parent."""
    path = [MeanderType((), ())]
    count = 0
    for top, bottom, _, depth, tag in entries:
        del path[depth:]
        assert len(path) == depth
        m = MeanderType(top, bottom)
        move, parent = step_simplified(m)
        assert parent == path[-1]
        assert "~" + move.tag == tag
        assert apply_up_move(UpMove(tag, top[0] if tag == "~C0" else None), parent) == m
        path.append(m)
        count += 1
    return count


def test_meander_tree_depth_names_the_parent():
    assert _assert_each_parent_is_the_down_step(_meander_tree(9, 9, 18)) == len(brute_pairs(9))
    assert _assert_each_parent_is_the_down_step(_meander_tree(12, 0, 24)) == 8609


def test_generate_frobenius_zero_moves():
    assert generate_frobenius(0, 1) == parse_type("1/1")


def test_generate_frobenius_always_index_zero():
    for seed in range(300):
        m = generate_frobenius(5 + seed % 25, seed)
        assert index_naive(m) == 0
        sig = signature_simplified(m)
        assert is_frobenius(sig)


def test_generate_frobenius_deterministic():
    assert generate_frobenius(17, 42) == generate_frobenius(17, 42)
    # includes internal moves often enough to vary shape
    shapes = {str(generate_frobenius(12, s)) for s in range(30)}
    assert len(shapes) > 20


# --- the stack-held steps against tuple-based reference steps ------------------
#
# The reference steps below are written on tuples, straight from the case
# table of the winding module docstring, and rebuild the whole composition
# on every move; they are the slow route the in-place steps are checked by.


def _ref_step_simplified(top, bottom):
    a1, b1 = top[0], bottom[0]
    if a1 < b1:
        return Move("F0"), bottom, top
    if a1 == b1:
        return Move("C0", a1), top[1:], bottom[1:]
    if a1 == 2 * b1:
        return Move("B0"), (b1,) + top[1:], bottom[1:]
    if a1 < 2 * b1:
        return Move("R0"), (b1,) + top[1:], (2 * b1 - a1,) + bottom[1:]
    return Move("P0"), (a1 - 2 * b1, b1) + top[1:], bottom[1:]


def _ref_step_refined(top, bottom):
    """(move, top, bottom, undo) of one refined step."""
    a1, b1 = top[0], bottom[0]
    if a1 < b1:
        return Move("F"), bottom, top, UpMove("~F")
    if a1 == b1:
        return Move("C", a1), top[1:], bottom[1:], UpMove("~C", a1)
    if a1 == 2 * b1:
        return Move("B"), (b1,) + top[1:], bottom[1:], UpMove("~B")
    if a1 < 2 * b1:
        return Move("R"), (b1,) + top[1:], (2 * b1 - a1,) + bottom[1:], UpMove("~R")
    # doubled coordinates: the center of the first top block sits at a1 + 1
    i, p = 0, 1
    while 2 * (p + bottom[i] - 1) <= a1:
        p += bottom[i]
        i += 1
    q = p + bottom[i] - 1
    if 2 * p > a1 + 1:
        nb = bottom[: i - 1] + bottom[i:]
        return Move("IB"), (a1 - bottom[i - 1],) + top[1:], nb, UpMove("~IB", block=i)
    bi = bottom[i]
    if p + q == a1 + 1:
        nb = bottom[:i] + bottom[i + 1 :]
        return Move("IC", bi), (a1 - bi,) + top[1:], nb, UpMove("~IC", bi)
    s = min(abs(2 * p - a1 - 1), abs(2 * q - a1 - 1)) + 1
    if a1 - bi + s < 1:
        return Move("P"), (a1 - 2 * b1, b1) + top[1:], bottom[1:], UpMove("~P")
    nb = bottom[:i] + (s,) + bottom[i + 1 :]
    return Move("IR"), (a1 - bi + s,) + top[1:], nb, UpMove("~IR", block=i + 1)


def _ref_signatures(m):
    """(simplified signature, refined signature, refined undo moves)."""
    simplified = []
    top, bottom = m.top, m.bottom
    while top:
        move, top, bottom = _ref_step_simplified(top, bottom)
        simplified.append(move)
    refined, undos = [], []
    top, bottom = m.top, m.bottom
    while top:
        move, top, bottom, undo = _ref_step_refined(top, bottom)
        refined.append(move)
        undos.append(undo)
    return simplified, refined, undos


def _refined_undos(m):
    undos = []
    while m.n:
        step = step_refined_full(m)
        undos.append(step.undo)
        m = step.result
    return undos


def _assert_matches_reference(m):
    simplified, refined, undos = _ref_signatures(m)
    assert signature_simplified(m) == simplified
    assert signature_refined(m) == refined
    assert _refined_undos(m) == undos


def test_steps_match_reference_exhaustive():
    for n in range(1, 9):
        for m in enumerate_meanders(n):
            _assert_matches_reference(m)


def test_steps_match_reference_large_families():
    # hundreds of blocks, and a two-block meander of 4 000 moves
    _assert_matches_reference(family_parabolic(2, 600, 3))
    _assert_matches_reference(family_biparabolic(2, 5, 120, 600))
    m = MeanderType((7, 7 * 4000 + 3), (7 * 4001 + 3,))
    assert len(signature_simplified(m)) > 4000
    _assert_matches_reference(m)


def test_single_vertex_blocks_at_scale():
    m = MeanderType((1,) * 32000, (1,) * 32000)
    sig = signature_simplified(m)
    assert len(sig) == 32000 and set(sig) == {Move("C0", 1)}


def test_parabolic_family_frobenius_at_scale():
    # index 0 is the family's closed form, for even a coprime to b
    m = family_parabolic(2, 5000, 3)
    assert is_frobenius(signature_simplified(m))
    assert is_frobenius(signature_refined(m))
    # 20 000 blocks: a center search from the first block on every
    # internal move would take tens of seconds here
    assert is_frobenius(signature_refined(family_parabolic(2, 20000, 1)))



@pytest.mark.parametrize(
    "m, walk",
    [
        (family_parabolic(2, 600, 3), 600),
        (family_parabolic(2, 4800, 1), 4799),
        (family_biparabolic(2, 5, 120, 600), 123),
        (family_biparabolic(4, 3, 50, 300), 350),
    ],
    ids=["parabolic-600", "parabolic-4800", "biparabolic-120-600", "biparabolic-50-300"],
)
def test_center_search_keeps_its_finger_local(monkeypatch, m, walk):
    # the blocks the finger moves over in all the center searches of one
    # refined reduction: a search from the first block each time would
    # move it about blocks**2 / 4
    from meanderkit import winding

    moved = []
    search = winding._center_block

    def counting(a1, bottom, k, p):
        found = search(a1, bottom, k, p)
        moved.append(abs(found[0] - k))
        return found

    monkeypatch.setattr(winding, "_center_block", counting)
    signature_refined(m)
    assert sum(moved) == walk

def _index_from_runs(m):
    return sum(homotopy_type(m).parameters()) - 1


def test_index_from_runs_matches_closed_forms_near_1e18():
    # each signature has about 10**18 moves; only its runs are computed.
    # F0 P0 F0 R0^(N-2) B0 C0(1) is six runs: fail here first, not by
    # exhausting memory one move at a time below, if runs were not taken
    assert len(_reduce((1, 10**5), (10**5 + 1,), _step_simplified_raw)) == 6
    rng = random.Random(1018)
    for _ in range(200):
        a, b, c = (rng.randint(10**18 - 10**6, 10**18 + 10**6) for _ in range(3))
        assert _index_from_runs(MeanderType((a, b), (a + b,))) == index_two_block(a, b)
        g = rng.randint(1, 10**6)
        assert _index_from_runs(MeanderType((g * a, g * b), (g * (a + b),))) == index_two_block(
            g * a, g * b
        )
        d = rng.randint(1, a + b - 1)
        four = FourBlockType("top-two", a, b, d, a + b - d)
        assert _index_from_runs(four.to_meander()) == index_four_block(four)
        four = FourBlockType("bottom-three", a, b, c, a + b + c)
        assert _index_from_runs(four.to_meander()) == index_four_block(four)
    m = MeanderType((1, 10**18), (10**18 + 1,))
    assert homotopy_type(m).parameters() == (1,)


# --- round-trip properties -------------------------------------------------------

@st.composite
def _meanders(draw):
    """Random meanders to order 40, and few-block ones with parts up to 10**4."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        return MeanderType(draw(compositions(n)), draw(compositions(n)))
    parts = st.lists(st.integers(1, 10**4), min_size=1, max_size=3)
    top, bottom = draw(parts), draw(parts)
    # pad the lighter side with one block so that the sums agree
    gap = sum(top) - sum(bottom)
    if gap > 0:
        bottom.append(gap)
    elif gap < 0:
        top.append(-gap)
    return MeanderType(tuple(top), tuple(bottom))


@given(_meanders())
def test_simplified_signature_winds_back_up(m):
    assert wind_up(hat_reversed(signature_simplified(m))) == m


@given(_meanders())
def test_refined_undo_moves_wind_back_up(m):
    assert wind_up(reversed(_refined_undos(m))) == m


@given(_meanders())
def test_signatures_and_homotopy_match_reference(m):
    # parts up to 10**4 reach long R0, R and IR runs, and the ~IB and ~IR
    # blocks read off the finger after each single step
    simplified, refined, undos = _ref_signatures(m)
    assert signature_simplified(m) == simplified
    assert signature_refined(m) == refined
    assert _refined_undos(m) == undos
    params = sorted((mv.c for mv in simplified if mv.c is not None), reverse=True)
    assert homotopy_type(m).parameters() == tuple(params)


@given(_meanders())
def test_signature_indices_agree_with_walk(m):
    walk = _index(m.top, m.bottom)
    assert index_from_signature(signature_simplified(m)) == walk
    assert index_from_signature(signature_refined(m)) == walk


# --- the one-pass up-move targets against copy-and-step ------------------------


def _slow_valid_up_moves(m):
    """The up-moves _valid_up_moves lists, each ~IR target found by
    expanding a copy of the meander and stepping it back down."""
    top, bottom = m.top, m.bottom
    a1 = top[0]
    out = [UpMove("~F"), UpMove("~B")]
    if a1 > bottom[0]:
        out.append(UpMove("~R"))
    p = 1
    for j, bj in enumerate(bottom, 1):
        if j > 1 and a1 - 2 * (p - 1) >= 1:
            out.append(UpMove("~IB", block=j))
        p += bj
    p = 1
    for j, bj in enumerate(bottom, 1):
        delta = abs(a1 + 2 - 2 * p - bj)
        if delta:
            up = MeanderType((a1 + delta,) + top[1:], bottom[: j - 1] + (bj + delta,) + bottom[j:])
            step = step_refined_full(up)
            if step.move.tag == "IR" and step.undo.block == j and step.result == m:
                out.append(UpMove("~IR", block=j))
        p += bj
    return out


def _assert_up_moves_match(m):
    fast = _valid_up_moves(_sides(m.top, m.bottom))
    assert [UpMove(*args) for args in fast] == _slow_valid_up_moves(m)
    # an explicit ~IR applies exactly on the listed targets
    targets = {block for tag, _, block in fast if tag == "~IR"}
    for j in range(1, len(m.bottom) + 1):
        try:
            apply_up_move(UpMove("~IR", block=j), m)
        except PreconditionError:
            assert j not in targets
        else:
            assert j in targets


def test_valid_up_moves_match_copy_and_step_exhaustive():
    for top, bottom, *_ in _meander_tree(10, 0, 20):
        _assert_up_moves_match(MeanderType(top, bottom))


def test_valid_up_moves_match_copy_and_step_along_chains():
    for seed in range(12):
        rng = random.Random(seed)
        sides = _sides((1,), (1,))
        for _ in range(120):
            _assert_up_moves_match(_meander(sides))
            _apply_up_raw(*rng.choice(_valid_up_moves(sides)), sides)


# --- run-form winding up against the per-move routes -----------------------------


def _slow_wind_up(seq):
    """The slow route: every up-move through _apply_up_raw, one at a time."""
    sides = _sides((), ())
    step = 0
    for move in seq:
        step += 1
        if step == 1 and move.tag not in ("~C", "~C0"):
            raise WindUpError(step, move, "the first move must create a component")
        try:
            _apply_up_raw(move.tag, move.c, move.block, sides)
        except PreconditionError as exc:
            raise WindUpError(step, move, str(exc)) from exc
    if step == 0:
        raise WindUpError(0, None, "empty up-move sequence")
    return _meander(sides)


def _slow_hat_reversed(sig):
    """The slow route: a fresh up-move for each move."""
    out = []
    for mv in reversed(sig):
        if mv.tag not in ("F0", "C0", "B0", "R0", "P0"):
            raise PreconditionError(f"hat_reversed takes a simplified signature, got {mv.tag}")
        out.append(UpMove("~" + mv.tag, mv.c))
    return out


def _outcome(route, seq):
    """The meander that route builds from seq, or the step, reason and text
    of the WindUpError it raises."""
    try:
        return route(seq)
    except WindUpError as exc:
        return exc.step, exc.reason, str(exc)


def _fresh(seq):
    """Equal up-moves, none of them shared."""
    return [UpMove(mv.tag, mv.c, mv.block) for mv in seq]


def _longest_run(seq):
    """The most times one instance repeats in a row."""
    best = run = 0
    last = None
    for mv in seq:
        run = run + 1 if mv is last else 1
        last = mv
        best = max(best, run)
    return best


def test_wind_up_and_hat_reversed_match_the_slow_routes_to_order_7():
    for n in range(1, 8):
        for m in enumerate_meanders(n):
            sig = signature_simplified(m)
            up = hat_reversed(sig)
            assert up == _slow_hat_reversed(sig)
            assert wind_up(up) == _slow_wind_up(up) == m


def test_wind_up_matches_the_slow_route_on_long_rotation_runs():
    rng = random.Random(22)
    for steps in (10**3, 10**4, 10**5):
        for _ in range(2):
            a = rng.randint(2, 20)
            b = a * steps + rng.randint(1, a - 1)
            m = MeanderType((a, b), (a + b,))
            up = hat_reversed(signature_simplified(m))
            assert _longest_run(up) >= steps - 1
            assert wind_up(up) == _slow_wind_up(up) == m


def _random_up_sequence(rng):
    """Up-moves of shared instances with long ~R0 and ~R runs; about one
    sequence in three holds a move whose precondition fails."""
    shared = {tag: parse_up_moves(tag)[0] for tag in ("~R0", "~R", "~B0", "~F0", "~P0", "~B", "~F")}
    seq = [UpMove("~C0", rng.randint(1, 5))]
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.4:
            seq += [shared[rng.choice(("~R0", "~R"))]] * rng.randint(1, 3000)
        elif kind < 0.9:
            seq.append(shared[rng.choice(("~B0", "~F0", "~P0", "~B", "~F"))])
        else:
            seq.append(UpMove("~C0", rng.randint(1, 5)))
    return seq


def _assert_routes_agree(seq):
    expected = _outcome(_slow_wind_up, seq)
    assert _outcome(wind_up, seq) == expected
    assert _outcome(wind_up, iter(seq)) == expected
    assert _outcome(wind_up, _fresh(seq)) == expected
    return expected


def test_wind_up_matches_the_slow_route_on_random_runs():
    rng = random.Random(2022)
    failed = 0
    for _ in range(300):
        failed += isinstance(_assert_routes_agree(_random_up_sequence(rng)), tuple)
    assert 30 <= failed <= 270


def test_wind_up_reports_the_step_of_a_failing_move_around_a_run():
    r0, r, p0 = (parse_up_moves(tag)[0] for tag in ("~R0", "~R", "~P0"))
    c2 = UpMove("~C0", 2)
    cases = [
        # a failing move right after a run: 6/3|3, then one top block left
        ([c2, UpMove("~B0")] + [r0] * 1000 + [p0], 1003),
        ([c2, UpMove("~B0")] + [r0] * 1000 + [UpMove("~P")], 1003),
        # a run that starts on a1 = b1, and one on a1 < b1
        ([c2] + [r0] * 500, 2),
        ([c2, UpMove("~B0"), UpMove("~F0")] + [r] * 500, 4),
        # a run, a flip, then a second run on a1 < b1
        ([c2, UpMove("~B0")] + [r0] * 7 + [UpMove("~F0")] + [r0] * 5, 11),
        # the first-move check comes before any run
        ([r0] * 10, 1),
    ]
    for seq, step in cases:
        outcome = _assert_routes_agree(seq)
        assert outcome[0] == step
    assert _assert_routes_agree([]) == (0, "empty up-move sequence", "step 0 (?): empty up-move sequence")


def test_wind_up_applies_a_shared_run_once_and_fresh_moves_one_by_one(monkeypatch):
    from meanderkit import winding

    calls = []
    raw = winding._apply_up_raw

    def counting(*args):
        calls.append(args[0])
        return raw(*args)

    monkeypatch.setattr(winding, "_apply_up_raw", counting)
    m = MeanderType((3, 3 * 4000 + 1), (3 * 4001 + 1,))
    up = hat_reversed(signature_simplified(m))
    assert wind_up(up) == m
    assert len(calls) < 10 < len(up)
    calls.clear()
    assert wind_up(_fresh(up)) == m
    assert len(calls) == len(up)


def test_hat_reversed_matches_the_slow_route_on_fresh_moves():
    rng = random.Random(7)
    for _ in range(200):
        m = random_meander(rng, 60)
        sig = signature_simplified(m)
        fresh = parse_signature(signature_to_text(sig))
        assert hat_reversed(fresh) == hat_reversed(sig) == _slow_hat_reversed(sig)


def test_hat_reversed_raises_on_a_refined_tag_inside_a_run():
    r0, r = Move("R0"), Move("R")
    for sig in (
        [r0] * 3 + [r] * 4 + [r0] * 2,
        [Move("C0", 1)] + [r0] * 5 + [Move("IR")] * 3,
        [Move("P")] + [r0] * 4 + [Move("C0", 2)],
        signature_refined(parse_type("16|2|4/5|17")),
    ):
        texts = []
        for route in (hat_reversed, _slow_hat_reversed):
            with pytest.raises(PreconditionError) as exc:
                route(sig)
            texts.append(str(exc.value))
        assert texts[0] == texts[1]
