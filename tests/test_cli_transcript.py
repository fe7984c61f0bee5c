"""Replay of a recorded CLI transcript.

`cli_transcript.jsonl` holds one record per line: the argv of a command and
the exit code, stdout and stderr that `cli.run` gave for it.  It covers
every verb and flag form on each meander of order <= 3 and on a few named
meanders, plus named special commands: help, usage and parse errors,
budgets, `generate` with a seed, `enumerate`, `family` and small searches.
The `elapsed_seconds` of a search report is masked, and seedless `generate`
is left out, since neither repeats.  Replaying it checks that the output of
the CLI stays byte-identical.  To record the transcript again, on purpose,
after a logged change of output:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import io
import json
import re
from pathlib import Path

from meanderkit import enumerate_meanders
from meanderkit.cli import run

TRANSCRIPT = Path(__file__).with_name("cli_transcript.jsonl")

MEANDER_FORMS = [
    ["index"], ["index", "--verify"], ["index", "--json"], ["index", "--verify", "--json"],
    *(
        ["signature", *flags]
        for flags in (
            [], ["--refined"], ["--verify"], ["--json"], ["--refined", "--verify"],
            ["--refined", "--json"], ["--verify", "--json"], ["--refined", "--verify", "--json"],
        )
    ),
    ["homotopy"], ["homotopy", "--json"],
    ["spectrum"], ["spectrum", "--verify"], ["spectrum", "--json"],
    ["spectrum", "--verify", "--json"],
    ["check"], ["check", "--json"],
    ["oracle", "index"], ["oracle", "index", "--json"],
    ["oracle", "index", "--trials", "2", "--seed", "3"],
    ["oracle", "index", "--trials", "2", "--seed", "3", "--json"],
    ["oracle", "principal"], ["oracle", "principal", "--json"],
    ["oracle", "spectrum"], ["oracle", "spectrum", "--json"],
    ["oracle", "cybe"], ["oracle", "cybe", "--json"],
    ["diagram"], ["diagram", "--svg"],
]

NAMED_MEANDERS = ["6|1/2|3|2", "16|2|4/5|17", "1|4/2|3", "9/2|5|2", "2|1/2|1"]

SPECIALS = [
    [], ["--help"], ["help"], ["nonsense-verb"], ["index"], ["index", "1/1", "2/2"],
    ["index", "1/1", "--bogus"], ["index", "1|2/4"], ["index", "not a meander"],
    ["index", "0|1/1"], ["index", "²/2"], ["spectrum", "3/3"],
    ["index", "1|100000000000/100000000001"], ["check", "1|100000000000/100000000001"],
    ["homotopy", "6|100000000000/100000000006"],
    ["index", "--verify", "1|100000000000/100000000001"],
    ["signature", "1|100000000000/100000000001"],
    ["spectrum", "300000000/300000000"], ["spectrum", "300000000/300000000", "--json"],
    ["diagram", "100000000/100000000"], ["oracle", "cybe", "20/20"],
    ["oracle", "index", "1|2/3", "--trials", "51"], ["oracle"], ["oracle", "bogus", "1/1"],
    ["oracle", "cybe", "1|2/3", "--seed", "4"],
    ["generate"], ["generate", "--moves"], ["generate", "--moves", "x"],
    ["generate", "--moves", "6", "--seed", "11"],
    ["generate", "--moves", "6", "--seed", "11", "--json"],
    ["generate", "--moves", "0", "--seed", "1"],
    ["generate", "--moves", "100000000", "--seed", "1"],
    ["generate", "~C0(2)", "~B0", "~F0", "~P0", "~C0(5)", "~P0", "~F0", "~P0"],
    ["generate", "~C0(2) ~B0 ~F0 ~P0", "--json"], ["generate", "~B0"],
    ["generate", "~C0(1)", "~B0", "--seed", "2"],
    ["enumerate"], ["enumerate", "0"], ["enumerate", "1"], ["enumerate", "2"],
    ["enumerate", "3"], ["enumerate", "21"], ["enumerate", "3", "--workers", "2"],
    ["family"], ["family", "bogus", "1"], ["family", "parabolic", "2", "1"],
    ["family", "parabolic", "x", "1", "3"], ["family", "parabolic", "2", "1", "3"],
    ["family", "parabolic", "2", "1", "3", "--json"], ["family", "parabolic", "2", "1", "4"],
    ["family", "parabolic", "2", "2000000", "1", "--json"],
    ["family", "biparabolic", "2", "3", "1", "1"],
    ["family", "biparabolic", "2", "3", "1", "1", "--json"],
    ["family", "biparabolic", "2", "3", "0", "1"], ["family", "biparabolic", "2", "3", "0", "0"],
    ["search"], ["search", "bogus"], ["search", "unimodality", "--n-max", "6"],
    ["search", "blocks", "--n-max", "6"], ["search", "unimodality", "--n-max", "0"],
    ["search", "blocks", "--n-max", "3", "--workers", "2"],
    ["search", "gcd", "--max-coef", "1", "--n-max", "7"],
    ["search", "gcd", "--max-coef", "1", "--n-max", "7", "--sample-size", "3", "--seed", "2"],
    ["search", "gcd", "--max-coef", "20", "--n-max", "5"],
    ["search", "gcd", "--n-max", "5", "--workers", "0"],
    ["diagram", "1|1|1/3"], ["diagram", "5|1|6/12"], ["diagram", "8|8/16"],
    ["diagram", "2|2|2/1|2|2|1"], ["spectrum", "1|12/13"],
]


def commands():
    """Every argv of the transcript, in its order."""
    meanders = [str(m) for n in range(1, 4) for m in enumerate_meanders(n)] + NAMED_MEANDERS
    return [[*form[:2], m, *form[2:]] if form[0] == "oracle" else [form[0], m, *form[1:]]
            for m in meanders for form in MEANDER_FORMS] + SPECIALS


def _mask(text):
    return re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": "*"', text)


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return {"argv": argv, "exit": code, "stdout": _mask(out.getvalue()), "stderr": err.getvalue()}


def test_cli_transcript_replays_byte_identically():
    records = [json.loads(line) for line in TRANSCRIPT.read_text(encoding="utf-8").splitlines()]
    assert [r["argv"] for r in records] == commands()
    for expected in records:
        assert record(expected["argv"]) == expected


if __name__ == "__main__":
    with TRANSCRIPT.open("w", encoding="utf-8") as fh:
        for argv in commands():
            fh.write(json.dumps(record(argv), ensure_ascii=False) + "\n")
