import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from meanderkit import cli, lab, lie
from meanderkit.cli import (
    DIAGRAM_MAX_CELLS,
    HOMOTOPY_MAX_CHARS,
    ascii_diagram,
    run,
    svg_diagram,
)
from meanderkit import MeanderType, enumerate_meanders, index_naive, parse_type
from meanderkit.core import WALK_MAX_ORDER, _arcs
from meanderkit.lab import FIVE_BLOCK_MAX_ORDER, GCD_MAX_PAIRS, SCAN_MAX_ORDER
from meanderkit.lie import ORACLE_MAX_TRIALS
from meanderkit.spectrum import SpectrumFlags
from meanderkit.winding import (
    ENUMERATE_MAX_ORDER,
    GENERATE_MAX_MOVES,
    SIGNATURE_MAX_MOVES,
    _reduce,
    _step_simplified_raw,
)


def call(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_signature_golden():
    code, out, _ = call("signature", "6|1/2|3|2")
    assert code == 0
    assert out == "P0 F0 R0 B0 F0 B0 F0 B0 C0(1)\n"


def test_index_golden():
    code, out, _ = call("index", "16|2|4/5|17")
    assert code == 0 and out == "6\n"


def test_index_verify():
    code, out, _ = call("index", "16|2|4/5|17", "--verify")
    assert code == 0 and out == "6\n"


def test_spectrum_not_frobenius_exit_two():
    assert call("spectrum", "3/3") == (2, "", "error: not Frobenius (index 2)\n")
    for n in range(1, 7):
        for m in enumerate_meanders(n):
            ix = index_naive(m)
            if ix != 0:
                assert call("spectrum", str(m)) == (2, "", f"error: not Frobenius (index {ix})\n")


def test_spectrum_json_schema():
    code, out, _ = call("spectrum", "1|4/2|3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalues"] == [
        {"e": -2, "dim": 1},
        {"e": -1, "dim": 2},
        {"e": 0, "dim": 4},
        {"e": 1, "dim": 4},
        {"e": 2, "dim": 2},
        {"e": 3, "dim": 1},
    ]
    assert data["symmetric"] and data["unbroken"]


def test_spectrum_verify_against_oracle():
    code, out, _ = call("spectrum", "1|4/2|3", "--verify")
    assert code == 0


def test_parse_error_exit_one():
    code, _, err = call("index", "1|2/4")
    assert code == 1 and "error" in err
    code, _, _ = call("index", "not a meander")
    assert code == 1
    code, _, _ = call("nonsense-verb")
    assert code == 1


def test_a_zero_up_move_parameter_exits_one():
    # refused when the up-move is built, before wind_up
    for token, message in (
        ("~C0(0)", "up-move parameter must be positive: 0"),
        ("~IR(0)", "up-move block index must be positive: 0"),
    ):
        code, out, err = call("generate", "~C0(1)", token)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_unicode_digits_exit_one():
    # str.isdigit and the re module's \d accept these; int() rejects "²"
    cases = (
        ["index", "²/2"],
        ["enumerate", "²"],
        ["index", "٣/٣"],
        ["generate", "~C0(٣)"],
        ["generate", "--moves", "٣", "--seed", "1"],
        ["family", "parabolic", "٢", "1", "٣"],
    )
    for argv in cases:
        code, out, err = call(*argv)
        assert (code, out) == (1, "") and err.startswith("error: ")


@pytest.fixture
def digit_limit():
    """Python's default limit on the digits of an int read from or written
    to a string, set for the test and restored after it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1


def test_parts_past_the_digit_limit_exit_one(digit_limit):
    long = "1" * (digit_limit + 100)
    for argv in (
        ["index", f"{long}/{long}"],
        ["signature", f"{long}/{long}"],
        ["check", f"1|{long}/{long}|1"],
    ):
        code, out, err = call(*argv)
        assert (code, out) == (1, "") and _one_error_line(err)
        assert f"more than the limit of {digit_limit}" in err


def test_up_move_parameters_past_the_digit_limit_exit_one(digit_limit):
    code, out, err = call("generate", "~C0(" + "1" * (digit_limit + 1) + ")")
    assert (code, out) == (1, "") and _one_error_line(err)
    assert f"more than the limit of {digit_limit}" in err


def test_generated_parts_past_the_digit_limit_exit_two(digit_limit):
    # 2**15000 has 4516 digits
    for flags in ([], ["--json"]):
        code, out, err = call("generate", "~C0(1)", *["~B0"] * 15000, *flags)
        assert (code, out) == (2, "") and _one_error_line(err)
        assert f"more than {digit_limit} digits" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["index"],
        ["index", "--json"],
        ["check"],
        ["signature", "--json"],
        ["signature", "--refined", "--json"],
        ["spectrum"],
        ["index", "--verify"],
    ],
    ids=" ".join,
)
def test_results_past_the_digit_limit_exit_two(digit_limit, flags):
    # every part fits, but the index has 4 301 digits, and the seaweed
    # dimension and the order, which the budgets name, have more
    part = "9" * digit_limit
    code, out, err = call(flags[0], f"{part}|{part}/{part}|{part}", *flags[1:])
    assert (code, out) == (2, "") and _one_error_line(err)
    assert f"more than {digit_limit} digits" in err


def test_signed_numbers_exit_one():
    for argv in (
        ["generate", "--moves", "-1", "--seed", "1"],
        ["generate", "--moves", "3", "--seed", "-1"],
        ["generate", "--moves", "+3"],
        ["family", "parabolic", "2", "-1", "3"],
        ["search", "unimodality", "--n-max", "-3"],
    ):
        code, out, err = call(*argv)
        assert (code, out) == (1, "") and err.startswith("error: ")


def test_workers_only_on_search_gcd():
    assert call("enumerate", "3", "--workers", "2")[0] == 1
    for sub in ("blocks", "unimodality"):
        for option in ("--workers", "--max-coef", "--seed", "--sample-size"):
            code, out, err = call("search", sub, "--n-max", "3", option, "2")
            assert (code, out) == (1, "") and f"unknown option {option}" in err
    code, out, _ = call("search", "gcd", "--max-coef", "1", "--n-max", "7", "--workers", "2")
    assert code == 0 and json.loads(out)["survivors"] == []
    code, out, err = call("search", "gcd", "--n-max", "5", "--workers", "0")
    assert (code, out) == (1, "") and "--workers needs a value >= 1" in err


def test_search_gcd_reads_the_indices_of_the_tree_walk(monkeypatch):
    # five_block_meanders splits its samples by the index the walk read, so
    # the command checks no sample's index again; the public function does
    frob, nonfrob = lab.five_block_meanders(9)
    expected = lab.search_gcd_conditions(1, frob, nonfrob, seed=2, sample_size=30).payload()

    def no_parameters(m):
        raise AssertionError(f"index re-checked: {m}")

    monkeypatch.setattr(lab, "_parameters", no_parameters)
    code, out, _ = call(
        "search", "gcd", "--max-coef", "1", "--n-max", "9", "--seed", "2", "--sample-size", "30"
    )
    assert code == 0
    report = json.loads(out)
    del report["elapsed_seconds"]
    assert report == expected
    with pytest.raises(AssertionError, match="index re-checked"):
        lab.search_gcd_conditions(1, frob, nonfrob)


def test_options_a_command_does_not_read_are_rejected(tmp_path):
    for argv in (
        ("oracle", "cybe", "1|2/3", "--trials", "9", "--seed", "4"),
        ("oracle", "principal", "1|2/3", "--seed", "4"),
        ("oracle", "spectrum", "1|2/3", "--trials", "4"),
        ("generate", "~C0(1)", "~B0", "--moves", "5", "--seed", "2"),
        ("generate", "~C0(1)", "~B0", "--seed", "2"),
    ):
        code, out, err = call(*argv)
        assert (code, out) == (1, "") and "unknown option --" in err
    assert call("oracle", "index", "1|2/3", "--trials", "2", "--seed", "4")[:2] == (
        0,
        "0 trials=2 seed=4\n",
    )
    assert call("generate", "~C0(1)", "~B0")[:2] == (0, "2/1|1\n")
    cfg = tmp_path / "scan.cfg"
    for key in ("max_coef", "seed", "sample_size"):
        cfg.write_text(f"n_max = 3\n{key} = 2\n")
        for sub in ("unimodality", "blocks"):
            code, out, err = call("search", sub, "--config", str(cfg))
            assert (code, out) == (1, "") and f"unknown key {key!r}" in err
    cfg.write_text("n_max = 3\n")
    code, out, _ = call("search", "blocks", "--config", str(cfg))
    assert code == 0 and json.loads(out)["parameters"] == {"n_max": 3}


def test_oracle_over_budget_exit_two():
    # seaweed dimensions from 400 to about 4 * 10**12, over the oracle
    # budget; 2|2000000/2000002 and 20/20 have nonzero index, and the
    # budget, which needs only the block sizes, comes before the Frobenius
    # check
    for meander in ("1|400/401", "2|2000000/2000002", "20/20"):
        for sub in ("index", "principal", "spectrum", "cybe"):
            code, out, err = call("oracle", sub, meander)
            assert (code, out) == (2, "")
            assert "exceeds the oracle budget" in err and "Traceback" not in err


def test_spectrum_over_budget_exit_two():
    for meander, order in (("300000000/300000000", 300000000), ("1|200000/200001", 200001)):
        code, out, err = call("spectrum", meander)
        assert (code, out) == (2, "")
        assert err == f"error: order {order} exceeds the spectrum budget 200000\n"
    # within the order budget at seaweed dimension 400 000 000
    code, out, err = call("spectrum", "1|19999/20000")
    assert (code, err) == (0, "") and out.startswith("-19998:1 -19997:2 ")


def test_vertex_budgets_exit_two():
    # each bound is checked from the block sizes, the runs or the
    # coefficient bound, before anything per vertex, per move or per
    # coefficient vector is allocated
    for argv, message in (
        (("diagram", "100000000/100000000"),
         f"cell count 20000000099999999 exceeds the diagram budget {DIAGRAM_MAX_CELLS}"),
        (("diagram", "--svg", "708/708"),
         f"cell count 1003235 exceeds the diagram budget {DIAGRAM_MAX_CELLS}"),
        (("index", "--verify", "1|100000000000/100000000001"),
         f"order 100000000001 exceeds the walk budget {WALK_MAX_ORDER}"),
        (("family", "parabolic", "2", "2000000", "1", "--json"),
         f"order 4000001 exceeds the walk budget {WALK_MAX_ORDER}"),
        (("family", "parabolic", "2", "4000000", "1"),
         f"block count 4000001 exceeds the walk budget {WALK_MAX_ORDER}"),
        (("family", "biparabolic", "2", "1", "1", "3999999"),
         f"block count 4000001 exceeds the walk budget {WALK_MAX_ORDER}"),
        (("enumerate", str(ENUMERATE_MAX_ORDER + 1)),
         f"order {ENUMERATE_MAX_ORDER + 1} exceeds the enumerate budget {ENUMERATE_MAX_ORDER}"),
        (("signature", "1|100000000000/100000000001"),
         f"move count 100000000003 exceeds the signature budget {SIGNATURE_MAX_MOVES}"),
        (("signature", "--refined", "1|100000000000/100000000001"),
         f"move count 100000000002 exceeds the signature budget {SIGNATURE_MAX_MOVES}"),
        (("generate", "--moves", "100000000", "--seed", "1"),
         f"move count 100000000 exceeds the generate budget {GENERATE_MAX_MOVES}"),
        (("generate", "--moves", str(GENERATE_MAX_MOVES + 1), "--seed", "1"),
         f"move count {GENERATE_MAX_MOVES + 1} exceeds the generate budget {GENERATE_MAX_MOVES}"),
        (("search", "gcd", "--max-coef", "20", "--n-max", "5"),
         f"pair count 1677832471697150 exceeds the gcd budget {GCD_MAX_PAIRS}"),
    ):
        assert call(*argv) == (2, "", f"error: {message}\n")
    # the largest square diagram within the bound
    code, out, _ = call("diagram", "706/706")
    assert code == 0 and out.count("o") == 706


def test_unwritable_output_and_unreadable_config_exit_one(tmp_path):
    for argv in (
        ("diagram", "1|2/3", "-o", str(tmp_path)),
        ("search", "blocks", "--n-max", "4", "-o", str(tmp_path / "missing" / "x.json")),
    ):
        code, out, err = call(*argv)
        assert (code, out) == (1, "") and err.startswith("error: cannot write output: ")
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n_max = \xff\n")
    code, out, err = call("search", "unimodality", "--config", str(cfg))
    assert (code, out) == (1, "") and err.startswith("error: cannot read config: ")


def test_oracle_trials_bound():
    bound = str(ORACLE_MAX_TRIALS)
    code, out, err = call("oracle", "index", "1|2/3", "--trials", str(ORACLE_MAX_TRIALS + 1))
    assert (code, out) == (2, "") and f"exceed the oracle budget {bound}" in err
    assert call("oracle", "index", "1|2/3", "--trials", bound)[:2] == (
        0,
        f"0 trials={bound} seed=0\n",
    )


def test_index_and_check_of_astronomical_order():
    # the signature has about 10**11 moves; index and check read its runs,
    # and fail here first if runs of R0 were taken one move at a time
    assert len(_reduce((1, 10**5), (10**5 + 1,), _step_simplified_raw)) == 6
    assert call("index", "1|100000000000/100000000001") == (0, "0\n", "")
    assert call("check", "1|100000000000/100000000001") == (0, "frobenius index=0\n", "")
    assert call("index", "6|100000000000/100000000006") == (0, "1\n", "")
    assert call("homotopy", "6|100000000000/100000000006") == (0, "(o)\n", "")


def test_check_verb():
    assert call("check", "6|1/2|3|2") == (0, "frobenius index=0\n", "")
    code, out, _ = call("check", "16|2|4/5|17")
    assert code == 0 and out == "not frobenius index=6\n"


def test_homotopy_verb():
    code, out, _ = call("homotopy", "2|1/2|1")
    assert code == 0 and out == "(o) (.)\n"


def test_homotopy_text_budget(digit_limit):
    # the text of c/c is one symbol of c // 2 circles, a centre point when
    # c is odd, and two brackets; it is refused before it is built
    c = 2 * HOMOTOPY_MAX_CHARS - 4
    code, out, _ = call("homotopy", f"{c}/{c}")
    assert code == 0 and out == "(" + "o" * (c // 2) + ")\n"
    assert len(out) == HOMOTOPY_MAX_CHARS + 1
    c += 2
    assert call("homotopy", f"{c}/{c}") == (
        2, "",
        f"error: character count {HOMOTOPY_MAX_CHARS + 1} exceeds the homotopy text budget "
        f"{HOMOTOPY_MAX_CHARS}\n",
    )
    # two symbols of 4 300 digits each: the count itself cannot be printed
    part = "9" * digit_limit
    meander = f"{part}|{part}/{part}|{part}"
    code, out, err = call("homotopy", meander)
    assert (code, out) == (2, "") and _one_error_line(err)
    assert f"character count of more than {digit_limit} digits" in err
    code, out, _ = call("homotopy", meander, "--json")
    assert code == 0 and [s["c"] for s in json.loads(out)["symbols"]] == [int(part)] * 2


def test_generate_explicit_sequence():
    code, out, _ = call("generate", "~C0(2)", "~B0", "~F0", "~P0", "~C0(5)", "~P0", "~F0", "~P0")
    assert code == 0 and out == "16|2|4/5|17\n"


def test_generate_invalid_sequence_exit_two():
    code, _, err = call("generate", "~B0")
    assert code == 2 and "step 1" in err


def test_generate_random_prints_seed():
    code, out, _ = call("generate", "--moves", "6", "--seed", "11")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1] == "seed=11 moves=6"
    code2, out2, _ = call("generate", "--moves", "6", "--seed", "11")
    assert out2 == out
    # seed defaults to a fresh value and is reported
    code, out, _ = call("generate", "--moves", "3")
    assert code == 0 and "seed=" in out.splitlines()[1]


def test_generate_json():
    code, out, _ = call("generate", "--moves", "4", "--seed", "9", "--json")
    data = json.loads(out)
    assert data["seed"] == 9 and data["moves"] == 4


def test_enumerate_verb():
    code, out, _ = call("enumerate", "2")
    assert code == 0
    assert out.splitlines() == ["1|1/1|1", "1|1/2", "2/1|1", "2/2"]


def test_oracle_verbs():
    code, out, _ = call("oracle", "index", "3/3")
    assert code == 0 and out == "2 trials=5 seed=0\n"
    code, out, _ = call("oracle", "principal", "1|2/3")
    assert code == 0 and out == "diag 1 -1 0\n"
    code, out, _ = call("oracle", "principal", "1|2/3", "--json")
    assert json.loads(out) == {"meander": "1|2/3", "diag": [1, -1, 0]}
    code, out, _ = call("oracle", "spectrum", "1|2/3")
    assert code == 0 and out == "-1:1 0:2 1:2 2:1\n"
    code, out, _ = call("oracle", "cybe", "1|2/3")
    assert code == 0 and out == "true\n"
    code, _, err = call("oracle", "principal", "3/3")
    assert code == 2 and err == "error: not Frobenius (index 2)\n"


def test_family_verbs():
    assert call("family", "parabolic", "2", "1", "3")[1] == "2|3/5\n"
    assert call("family", "biparabolic", "2", "3", "1", "1")[1] == "2|2|3/5|2\n"
    assert call("family", "biparabolic", "2", "3", "0", "1")[:2] == (0, "2|3/3|2\n")
    code, _, _ = call("family", "parabolic", "2", "1", "4")
    assert code == 2


def test_search_verbs(tmp_path):
    code, out, _ = call("search", "unimodality", "--n-max", "5")
    assert code == 0
    data = json.loads(out)
    assert data["counterexamples"] == []
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("max_coef = 1\nn_max = 7\n")
    code, out, _ = call("search", "gcd", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["parameters"]["max_coef"] == 1
    assert data["survivors"] == []
    out_file = tmp_path / "report.json"
    code, _, _ = call("search", "blocks", "--n-max", "5", "-o", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["counterexamples"] == []


def test_diagram_ascii():
    code, out, _ = call("diagram", "1|2/3")
    assert code == 0
    assert out == "  .-.\no o o\n'---'\n"


def test_diagram_nested():
    assert ascii_diagram(parse_type("4/4")) == "\n".join(
        [
            ".-----.",
            "| .-. |",
            "o o o o",
            "| '-' |",
            "'-----'",
        ]
    )


def _grid_diagram(m):
    """The slow route of ascii_diagram: a grid of cells per side, one bar
    cell and two vertical cells per row written at a time for each arc."""
    n = m.n
    width = max(2 * n - 1, 1)

    def rows(comp, corner):
        arcs = _arcs(comp)
        height = max((d for _, _, d in arcs), default=0)
        grid = [[" "] * width for _ in range(height)]
        for u, v, d in arcs:
            bar = d - 1
            cu, cv = 2 * (u - 1), 2 * (v - 1)
            grid[bar][cu] = corner
            grid[bar][cv] = corner
            for c in range(cu + 1, cv):
                grid[bar][c] = "-"
            for rr in range(bar + 1, height):
                grid[rr][cu] = "|"
                grid[rr][cv] = "|"
        return grid

    top_grid = rows(m.top, ".")
    bot_grid = rows(m.bottom, "'")
    bot_grid.reverse()
    lines = ["".join(r).rstrip() for r in top_grid]
    lines.append(" ".join("o" for _ in range(n)))
    lines.extend("".join(r).rstrip() for r in bot_grid)
    return "\n".join(lines)


def _few_blocks(rng, n, most):
    """A random composition of n into at most `most` blocks."""
    cuts = sorted(rng.sample(range(1, n), min(rng.randint(0, most - 1), n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))


def test_diagram_matches_the_grid_to_order_seven():
    meanders = [MeanderType((), ())]
    meanders += [m for n in range(1, 8) for m in enumerate_meanders(n)]
    for m in meanders:
        assert ascii_diagram(m) == _grid_diagram(m), m


def test_diagram_matches_the_grid_on_seeded_meanders():
    # up to 40 blocks a side to order 300, and in every fourth draw one
    # side all of size 1 (no arcs) or of equal tall blocks
    rng = random.Random(27)
    for i in range(2000):
        n = rng.randint(1, 300)
        top, bottom = _few_blocks(rng, n, 40), _few_blocks(rng, n, 40)
        if i % 4 == 1:
            top = (1,) * n
        elif i % 4 == 3:
            k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            bottom = (k,) * (n // k)
        m = MeanderType(top, bottom)
        assert ascii_diagram(m) == _grid_diagram(m), m


def test_diagram_svg(tmp_path):
    svg = svg_diagram(parse_type("6|1/2|3|2"))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<path") == 6  # three top arcs, three bottom arcs
    out_file = tmp_path / "m.svg"
    code, _, _ = call("diagram", "6|1/2|3|2", "--svg", "-o", str(out_file))
    assert code == 0 and out_file.read_text().startswith("<svg")


def test_closed_pipe_exits_quietly():
    # enumerate 8 prints about 290 kB, more than a pipe holds, so its write
    # is still pending when the reader goes away after a few bytes; the
    # two bytes of index are still buffered when a reader that never read
    # goes away before the command has even started.  stdout is block
    # buffered, as it is by default on a pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv, head in ((["enumerate", "8"], 16), (["index", "6|1/2|3|2"], 0)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "meanderkit", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(head)) == head
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err and err == b""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "meanderkit", "index", "6|1/2|3|2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "0\n"


def test_every_exit_three_is_one_consistency_line(monkeypatch):
    # each cross-check is forced to disagree by patching one of its routes;
    # the command ends in exit 3 with one `internal consistency failure:`
    # line on stderr, after whatever it had already printed
    monkeypatch.setattr(cli, "index_naive", lambda m: 7)
    assert call("index", "6|1/2|3|2", "--verify") == (
        3, "", "internal consistency failure: index disagreement signature=0 naive=7 refined=0\n"
    )
    assert call("signature", "6|1/2|3|2", "--verify", "--json") == (
        3, "", "internal consistency failure: signature index mismatch\n"
    )
    monkeypatch.setattr(lie, "ad_spectrum", lambda m: {0: 1})
    assert call("spectrum", "1|4/2|3", "--verify") == (
        3, "", "internal consistency failure: spectrum oracle disagreement\n"
    )
    monkeypatch.setattr(lab, "classify", lambda dims: SpectrumFlags(False, True, True, True))
    code, out, err = call("search", "blocks", "--n-max", "1")
    assert (code, err) == (3, "internal consistency failure: block-measure counterexample\n")
    report = json.loads(out)
    assert report["counterexamples"] == [
        {"meander": "1/1", "side": "top", "block": 1, "measures": []},
        {"meander": "1/1", "side": "bottom", "block": 1, "measures": []},
    ]
    monkeypatch.setattr(lie, "cybe_residual", lambda m: False)
    failure = "internal consistency failure: classical Yang-Baxter residual is nonzero\n"
    assert call("oracle", "cybe", "1|2/3") == (3, "false\n", failure)
    assert call("oracle", "cybe", "1|2/3", "--json") == (
        3, '{"meander": "1|2/3", "cybe_zero": false}\n', failure
    )


def test_a_broken_spectrum_in_the_unimodality_scan_exits_three(monkeypatch):
    # the skew of test_scan_block_measures_reports_a_broken_block: the
    # spectrum of 3/1|2 is then not symmetric, which only a bug can cause
    real = lab._child

    def skewed(tag, up, top, bottom):
        node, made, gone = real(tag, up, top, bottom)
        if (top, bottom) == ((3,), (1, 2)):
            node[2][1] += 2 * node[3]  # the potential is sign * phi
        return node, made, gone

    monkeypatch.setattr(lab, "_child", skewed)
    code, out, err = call("search", "unimodality", "--n-max", "4")
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert err.startswith("internal consistency failure: symmetric/unbroken violated at 3/1|2: ")


def test_a_principal_element_off_the_diagonal_exits_three(monkeypatch):
    # a certified solution off the diagonal, which principal_element
    # refuses for both verbs that read it
    def first_certified(solve, what):
        return lie.PrincipalElement(3, {(1, 1): Fraction(1), (1, 2): Fraction(1)})

    monkeypatch.setattr(lie, "_first_certified", first_certified)
    for sub in ("principal", "spectrum"):
        for flags in ([], ["--json"]):
            assert call("oracle", sub, "1|2/3", *flags) == (
                3, "", "internal consistency failure: principal element is not diagonal\n"
            )


def test_search_order_budgets_and_empty_subsample_exit_two():
    huge = "100000000000000000000"
    for sub, budget in (
        ("unimodality", f"scan budget {SCAN_MAX_ORDER}"),
        ("blocks", f"scan budget {SCAN_MAX_ORDER}"),
        ("gcd", f"five-block budget {FIVE_BLOCK_MAX_ORDER}"),
    ):
        assert call("search", sub, "--n-max", huge) == (
            2, "", f"error: order {huge} exceeds the {budget}\n"
        )
    assert call("search", "gcd", "--max-coef", "1", "--n-max", "6", "--sample-size", "0") == (
        2, "", "error: sample_size must be >= 1\n"
    )
