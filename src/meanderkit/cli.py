"""Command-line front door.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation,
3 consistency failure (two routes that must agree did not).  Every exit 3
is a ConsistencyError that only `run` reports, with one line on standard
error after whatever the command had already printed.  A reader that
closes standard output early, as `| head` does, ends the command with
exit 1 and nothing on standard error.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import formulas, lab, lie, winding
from .spectrum import spectrum as spectrum_of
from .spectrum import classify, spectrum_to_json
from .core import (
    Composition,
    ConsistencyError,
    MeanderType,
    ParseError,
    PreconditionError,
    _arcs,
    _check_budget,
    _parse_uint,
    index_naive,
    parse_type,
)

__all__ = ["run", "main"]

USAGE = """\
usage: meanderkit VERB ...

verbs:
  index MEANDER [--verify] [--json]          index via the signature
  signature MEANDER [--refined] [--verify] [--json]
                                             winding-down move sequence
  homotopy MEANDER [--json]                  plane homotopy type
  spectrum MEANDER [--verify] [--json]       eigenvalues of a Frobenius meander
  check MEANDER [--json]                     Frobenius test plus index
  generate --moves K [--seed S] [--json]     random Frobenius meander
  generate UPMOVE... [--json]                wind up an explicit sequence
  enumerate N                                all meanders of order N
  oracle index MEANDER [--trials T] [--seed S] [--json]
  oracle principal MEANDER [--json]
  oracle spectrum MEANDER [--json]
  oracle cybe MEANDER [--json]
  family parabolic A K B [--json]
  family biparabolic A B K COPIES [--json]
  search gcd [--config F] [--max-coef C] [--n-max N] [--seed S]
             [--sample-size Z] [--workers K] [-o FILE]
                                             K >= 1 processes, at most one per CPU
  search unimodality [--config F] [--n-max N] [-o FILE]
  search blocks [--config F] [--n-max N] [-o FILE]
  diagram MEANDER [--svg] [-o FILE]

MEANDER text is block sizes, e.g. "6|1/2|3|2"."""


class _Usage(Exception):
    pass


class _Args:
    """Tiny argv helper: positionals plus --flag / --key value options."""

    def __init__(self, argv: Sequence[str], flags: set[str], options: set[str]):
        self.positional: list[str] = []
        self.flags: set[str] = set()
        self.options: dict[str, str] = {}
        items = list(argv)
        i = 0
        while i < len(items):
            arg = items[i]
            if arg in flags:
                self.flags.add(arg)
            elif arg in options:
                if i + 1 >= len(items):
                    raise _Usage(f"option {arg} needs a value")
                self.options[arg] = items[i + 1]
                i += 1
            elif arg.startswith("--") or (arg == "-o"):
                raise _Usage(f"unknown option {arg}")
            else:
                self.positional.append(arg)
            i += 1

    def int_option(self, name: str, default: int | None) -> int | None:
        if name not in self.options:
            return default
        try:
            return _parse_uint(self.options[name], f"option {name}")
        except ParseError:
            raise _Usage(f"option {name} needs an integer, got {self.options[name]!r}")


def _emit(text: str, out) -> None:
    print(text, file=out)


def _print(args: _Args, out, err, text, payload=None) -> int:
    """The one output path: write payload() as JSON under --json, else
    text(), to the -o file or else to out; 1 if the file fails, else 0.
    Only the form that is printed is built.  A number past the
    interpreter's limit on digits raises PreconditionError before
    anything is written."""
    try:
        body = json.dumps(payload()) if "--json" in args.flags else text()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise PreconditionError(
            "the result has a number of more than "
            f"{sys.get_int_max_str_digits()} digits and cannot be printed"
        ) from None
    if "-o" not in args.options:
        _emit(body, out)
        return 0
    try:
        with open(args.options["-o"], "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    except OSError as exc:
        _emit(f"error: cannot write output: {exc}", err)
        return 1
    return 0


def _frac_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def run(argv: Sequence[str], out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        return _dispatch(list(argv), out, err)
    except _Usage as exc:
        _emit(f"error: {exc}", err)
        _emit(USAGE, err)
        return 1
    except ParseError as exc:
        _emit(f"error: {exc}", err)
        return 1
    except PreconditionError as exc:
        _emit(f"error: {exc}", err)
        return 2
    except ConsistencyError as exc:
        _emit(f"internal consistency failure: {exc}", err)
        return 3


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


def _dispatch(argv: list[str], out, err) -> int:
    if not argv or argv[0] in ("-h", "--help", "help"):
        _emit(USAGE, out)
        return 0
    verb = argv[0]
    rest = argv[1:]
    handlers = {
        "index": _cmd_index,
        "signature": _cmd_signature,
        "homotopy": _cmd_homotopy,
        "spectrum": _cmd_spectrum,
        "check": _cmd_check,
        "generate": _cmd_generate,
        "enumerate": _cmd_enumerate,
        "oracle": _cmd_oracle,
        "family": _cmd_family,
        "search": _cmd_search,
        "diagram": _cmd_diagram,
    }
    if verb not in handlers:
        raise _Usage(f"unknown verb {verb!r}")
    return handlers[verb](rest, out, err)


def _one_meander(args: _Args) -> MeanderType:
    if len(args.positional) != 1:
        raise _Usage("expected exactly one MEANDER argument")
    return parse_type(args.positional[0])


def _signature_index(m: MeanderType) -> int:
    """The index read from the runs of the signature, never expanded: the
    sum of the C0 parameters, less one."""
    return sum(winding._parameters(m)) - 1


def _cmd_index(argv, out, err) -> int:
    args = _Args(argv, {"--json", "--verify"}, set())
    m = _one_meander(args)
    ix = _signature_index(m)
    if "--verify" in args.flags:
        naive = index_naive(m)
        refined = winding.index_from_signature(winding.signature_refined(m))
        if not (ix == naive == refined):
            raise ConsistencyError(
                f"index disagreement signature={ix} naive={naive} refined={refined}"
            )
    return _print(args, out, err, lambda: str(ix), lambda: {"meander": str(m), "index": ix})


def _cmd_signature(argv, out, err) -> int:
    args = _Args(argv, {"--json", "--refined", "--verify"}, set())
    m = _one_meander(args)
    if "--refined" in args.flags:
        sig = winding.signature_refined(m)
    else:
        sig = winding.signature_simplified(m)
    if "--verify" in args.flags:
        if winding.index_from_signature(sig) != index_naive(m):
            raise ConsistencyError("signature index mismatch")
    return _print(
        args, out, err,
        lambda: winding.signature_to_text(sig),
        lambda: {
            "meander": str(m),
            "signature": [str(mv) for mv in sig],
            "index": winding.index_from_signature(sig),
            "frobenius": winding.is_frobenius(sig),
        },
    )


# Most characters of the homotopy text, checked before it is built.  The
# text grows with the elimination parameters, not with the runs: homotopy
# N/N writes N // 2 circles.  At it (Python 3.11, shared 2-core host, peak
# RSS) 19999996/19999996 takes 0.04 s at 35 MB, near the memory of a
# diagram at DIAGRAM_MAX_CELLS.
HOMOTOPY_MAX_CHARS = 10_000_000


def _cmd_homotopy(argv, out, err) -> int:
    args = _Args(argv, {"--json"}, set())
    m = _one_meander(args)
    ht = winding.homotopy_type(m)

    def text() -> str:
        # each symbol is c // 2 circles, a centre point when c is odd and
        # two brackets, and one space separates two symbols
        chars = sum(c // 2 + c % 2 + 3 for c in ht.parameters()) - 1
        _check_budget("character count", chars, HOMOTOPY_MAX_CHARS, "homotopy text")
        return str(ht)

    return _print(
        args, out, err,
        text,
        lambda: {
            "meander": str(m),
            "symbols": [
                {"c": s.c, "circles": s.nested_cycles, "center_point": s.has_center_path}
                for s in ht.symbols
            ],
        },
    )


def _eigenvalue_line(dims: dict[int, int]) -> str:
    """The text of a spectrum's eigenvalues: e:dim, ascending."""
    return " ".join(f"{e}:{dims[e]}" for e in sorted(dims))


def _cmd_spectrum(argv, out, err) -> int:
    args = _Args(argv, {"--json", "--verify"}, set())
    m = _one_meander(args)
    dims = spectrum_of(m)
    if "--verify" in args.flags:
        if lie.ad_spectrum(m) != dims:
            raise ConsistencyError("spectrum oracle disagreement")
    # the shape flags follow the eigenvalues, in spectrum_to_json's order
    return _print(
        args, out, err,
        lambda: _eigenvalue_line(dims) + "\n" + " ".join(
            f"{k}={str(v).lower()}" for k, v in vars(classify(dims)).items()
        ),
        lambda: spectrum_to_json(dims),
    )


def _cmd_check(argv, out, err) -> int:
    args = _Args(argv, {"--json"}, set())
    m = _one_meander(args)
    ix = _signature_index(m)
    # the final C0 is the only elimination, with c = 1, exactly when ix is 0
    frob = ix == 0
    return _print(
        args, out, err,
        lambda: ("frobenius" if frob else "not frobenius") + f" index={ix}",
        lambda: {"meander": str(m), "frobenius": frob, "index": ix},
    )


def _cmd_generate(argv, out, err) -> int:
    args = _Args(argv, {"--json"}, {"--moves", "--seed"})
    if args.positional:
        # an explicit sequence reads neither --moves nor --seed
        args = _Args(argv, {"--json"}, set())
        moves = winding.parse_up_moves(" ".join(args.positional))
        m = winding.wind_up(moves)
        return _print(args, out, err, lambda: str(m), lambda: {"meander": str(m)})
    moves = args.int_option("--moves", None)
    if moves is None:
        raise _Usage("generate needs --moves K or an explicit up-move sequence")
    seed = args.int_option("--seed", None)
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    m = winding.generate_frobenius(moves, seed)
    return _print(
        args, out, err,
        lambda: f"{m}\nseed={seed} moves={moves}",
        lambda: {"meander": str(m), "seed": seed, "moves": moves},
    )


def _cmd_enumerate(argv, out, err) -> int:
    args = _Args(argv, set(), set())
    if len(args.positional) != 1:
        raise _Usage("enumerate needs a positive order N")
    n = _parse_uint(args.positional[0], "order N")
    for m in winding.enumerate_meanders(n):
        _emit(str(m), out)
    return 0


def _cmd_oracle(argv, out, err) -> int:
    if not argv:
        raise _Usage("oracle needs a subcommand: index, principal, spectrum, cybe")
    sub = argv[0]
    if sub not in ("index", "principal", "spectrum", "cybe"):
        raise _Usage(f"unknown oracle subcommand {sub!r}")
    # only the index oracle draws random functionals
    options = {"--trials", "--seed"} if sub == "index" else set()
    args = _Args(argv[1:], {"--json"}, options)
    m = _one_meander(args)
    if sub == "index":
        trials = args.int_option("--trials", 5)
        seed = args.int_option("--seed", 0)
        ix = lie.index_oracle(m, trials=trials, seed=seed)
        return _print(
            args, out, err,
            lambda: f"{ix} trials={trials} seed={seed}",
            lambda: {"meander": str(m), "index": ix, "trials": trials, "seed": seed},
        )
    if sub == "principal":
        diag = [_frac_json(x) for x in lie.principal_element(m).diagonal()]
        return _print(
            args, out, err,
            lambda: "diag " + " ".join(str(x) for x in diag),
            lambda: {"meander": str(m), "diag": diag},
        )
    if sub == "spectrum":
        dims = lie.ad_spectrum(m)
        return _print(
            args, out, err, lambda: _eigenvalue_line(dims), lambda: spectrum_to_json(dims)
        )
    ok = lie.cybe_residual(m)
    _print(
        args, out, err,
        lambda: "true" if ok else "false",
        lambda: {"meander": str(m), "cybe_zero": ok},
    )
    if not ok:
        raise ConsistencyError("classical Yang-Baxter residual is nonzero")
    return 0


def _cmd_family(argv, out, err) -> int:
    if not argv:
        raise _Usage("family needs a subcommand: parabolic or biparabolic")
    sub = argv[0]
    args = _Args(argv[1:], {"--json"}, set())
    values = []
    for p in args.positional:
        try:
            values.append(_parse_uint(p, "family argument"))
        except ParseError:
            raise _Usage(f"family arguments must be integers, got {p!r}")
    if sub == "parabolic":
        if len(values) != 3:
            raise _Usage("family parabolic needs A K B")
        m = formulas.family_parabolic(*values)
    elif sub == "biparabolic":
        if len(values) != 4:
            raise _Usage("family biparabolic needs A B K COPIES")
        m = formulas.family_biparabolic(*values)
    else:
        raise _Usage(f"unknown family {sub!r}")
    return _print(
        args, out, err, lambda: str(m), lambda: {"meander": str(m), "index": index_naive(m)}
    )


# The integer parameters of each search and their defaults.  Each is read
# from its option (--max-coef for max_coef) or else from the config key of
# the same name, so a search accepts exactly the options and keys it reads.
_SEARCH_PARAMS = {
    "gcd": {"max_coef": 2, "n_max": 18, "seed": 0, "sample_size": None},
    "unimodality": {"n_max": 12},
    "blocks": {"n_max": 12},
}


def _cmd_search(argv, out, err) -> int:
    if not argv:
        raise _Usage("search needs a subcommand: gcd, unimodality, blocks")
    sub = argv[0]
    if sub not in _SEARCH_PARAMS:
        raise _Usage(f"unknown search subcommand {sub!r}")
    defaults = _SEARCH_PARAMS[sub]
    options = {"--" + key.replace("_", "-"): key for key in defaults}
    # gcd is the only search that splits its work over processes
    extra = {"--config", "-o"} | ({"--workers"} if sub == "gcd" else set())
    args = _Args(argv[1:], set(), set(options) | extra)
    config: dict = {}
    if "--config" in args.options:
        try:
            with open(args.options["--config"], "r", encoding="utf-8") as fh:
                config = lab.load_config(fh.read(), tuple(defaults))
        except (OSError, UnicodeDecodeError) as exc:
            raise _Usage(f"cannot read config: {exc}")
    value = {
        key: args.int_option(option, config.get(key, defaults[key]))
        for option, key in options.items()
    }
    workers = args.int_option("--workers", 1)
    if workers < 1:
        raise _Usage("option --workers needs a value >= 1")
    if sub == "gcd":
        frob, nonfrob = lab.five_block_meanders(value["n_max"])
        report = lab._search_gcd(
            value["max_coef"], frob, nonfrob, value["seed"], value["sample_size"],
            workers, recheck=False,
        )
    elif sub == "unimodality":
        report = lab.scan_unimodality(value["n_max"])
    else:
        report = lab.scan_block_measures(value["n_max"])
    if _print(args, out, err, report.to_json):
        return 1
    if sub == "blocks" and report.counterexamples:
        raise ConsistencyError("block-measure counterexample")
    return 0


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------


# Most cells of a diagram, 2n - 1 columns times the vertex row and half the
# largest block of each side.  At it (Python 3.11, shared 2-core host, peak
# RSS) the command on 1|1|...|1/1|1|...|1 takes 0.33 s at 41 MB as text, most
# of it parsing, and 0.9-1.5 s at 121 MB as SVG; 2|...|2/1|2|...|2|1,
# 4|...|4/4|...|4 and 706/706 take at most 0.17 s at 28 MB as text.
DIAGRAM_MAX_CELLS = 1_000_000


def ascii_diagram(m: MeanderType) -> str:
    """Static arc diagram: top arcs above the vertex line, bottom below.

    A block of size k, with h = k // 2 nested arcs, is one column of text
    2k - 1 characters wide: row r < h holds the bar of its arc r inside the
    verticals of the r arcs around it, and every lower row holds the 2h
    verticals alone.  A side's rows join its columns with one space, so a
    diagram costs per block, not per cell of its grid."""

    def rows(comp: Composition, corner: str) -> list[str]:
        height = max(comp, default=0) // 2
        if not height:
            return []
        columns = {}
        for k in set(comp):
            h = k // 2
            lower = " ".join("|" * h + " " * (k - 2 * h) + "|" * h)
            columns[k] = [
                "| " * r + corner + "-" * (2 * (k - 2 * r) - 3) + corner + " |" * r
                for r in range(h)
            ] + [lower] * (height - h)
        return [" ".join(row).rstrip() for row in zip(*map(columns.__getitem__, comp))]

    bottom = rows(m.bottom, "'")
    bottom.reverse()
    return "\n".join([*rows(m.top, "."), " ".join("o" * m.n), *bottom])


def svg_diagram(m: MeanderType) -> str:
    """SVG 1.1 arc diagram, semicircles over a horizontal baseline."""
    edges = sorted(
        (u, v, side)
        for side, comp in (("top", m.top), ("bottom", m.bottom))
        for u, v, _ in _arcs(comp)
    )
    n = m.n
    spacing = 40
    margin = 30
    radius_unit = spacing / 2
    max_span = max([v - u for u, v, _ in edges] or [1])
    baseline = margin + max_span * radius_unit
    width = 2 * margin + spacing * (n - 1)
    height = 2 * baseline
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<line x1="{margin}" y1="{baseline:.1f}" x2="{width - margin:.0f}" '
        f'y2="{baseline:.1f}" stroke="#ccc" stroke-width="1"/>',
    ]

    def x(v: int) -> float:
        return margin + spacing * (v - 1)

    for u, v, side in edges:
        r = (x(v) - x(u)) / 2
        sweep = 1 if side == "top" else 0
        parts.append(
            f'<path d="M {x(u):.1f} {baseline:.1f} A {r:.1f} {r:.1f} 0 0 {sweep} '
            f'{x(v):.1f} {baseline:.1f}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    for v in range(1, n + 1):
        parts.append(
            f'<circle cx="{x(v):.1f}" cy="{baseline:.1f}" r="3" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_diagram(argv, out, err) -> int:
    args = _Args(argv, {"--svg"}, {"-o"})
    m = _one_meander(args)
    cells = (2 * m.n - 1) * (1 + max(m.top) // 2 + max(m.bottom) // 2)
    _check_budget("cell count", cells, DIAGRAM_MAX_CELLS, "diagram")
    draw = svg_diagram if "--svg" in args.flags else ascii_diagram
    return _print(args, out, err, lambda: draw(m))
