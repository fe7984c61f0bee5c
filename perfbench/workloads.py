"""The benchmark's four workloads.

Each workload builds its rounds of operations from its seed; every round of
a workload has the same size and the same make-up.  Most workloads repeat
one round, so every round attempts the same operations; ``fresh_rounds``
workloads draw new inputs for each round from (seed, round number).  An
operation is a thunk that calls meanderkit through module attributes looked
up at call time, so that the traced run sees the same calls.  ``summarize``
reduces an output to a comparable value outside the timed call; ``check``
tests a summary against the reference code.  A repeated round is checked
once and later rounds must reproduce it.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction
from math import gcd

import reference as ref


def _composition(rng: random.Random, n: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    edges = [0] + cuts + [n]
    return tuple(edges[i + 1] - edges[i] for i in range(parts))


def _few_block_meander(rng, n_lo, n_hi, blocks_hi):
    n = rng.randint(n_lo, n_hi)
    top = _composition(rng, n, rng.randint(1, min(blocks_hi, n)))
    bottom = _composition(rng, n, rng.randint(1, min(blocks_hi, n)))
    return top, bottom


class Workload:
    name = ""
    percentile = 50.0  # the tail percentile: ten samples beyond it at min_ops
    min_ops = 1  # ops a run attempts at least, so that the tail has them
    trace_ops = 10**9  # ops a traced run attempts at most, to bound its spans
    fresh_rounds = False
    # labels of the operations that fail today through a known fault of the
    # program; any other exception makes the run incorrect
    expected_failures: frozenset[str] = frozenset()

    def __init__(self, mk, seed: int) -> None:
        self.mk = mk
        self.ops: list[tuple[str, object]] = []

    def round(self, r: int) -> list[tuple[str, object]]:
        """(label, thunk) of the operations of round r."""
        return self.ops

    def summarize(self, key, result):
        """key is the op's index in its round, or (round, index) if fresh."""
        return result

    def check(self, key, summary) -> list[str]:
        return []

    def replay(self) -> int:
        """Replay the inputs through public layer functions; returns passes."""
        return 0


# ---------------------------------------------------------------------------


class Scan(Workload):
    """One operation: scan_unimodality plus scan_block_measures to N_MAX."""

    name = "scan"
    N_MAX = 7
    PER_ROUND = 4
    percentile = 95.0
    min_ops = 200

    def __init__(self, mk, seed: int) -> None:
        super().__init__(mk, seed)
        self.ops = [(f"scans n<={self.N_MAX}", self._pair)] * self.PER_ROUND
        self._expected = None

    def _pair(self):
        lab = self.mk.lab
        return lab.scan_unimodality(self.N_MAX), lab.scan_block_measures(self.N_MAX)

    @staticmethod
    def warmup(mk) -> None:
        mk.lab.scan_unimodality(Scan.N_MAX)
        mk.lab.scan_block_measures(Scan.N_MAX)

    def summarize(self, i, result):
        uni, blocks = result
        return (uni.kind, uni.checked, len(uni.counterexamples),
                blocks.kind, blocks.checked, tuple(map(repr, blocks.counterexamples)))

    def check(self, i, summary) -> list[str]:
        if self._expected is None:
            self._expected = ref.frobenius_count(self.N_MAX)
        uni_kind, uni_checked, _, blocks_kind, blocks_checked, counter = summary
        problems = []
        if (uni_kind, blocks_kind) != ("unimodality", "block-measures"):
            problems.append(f"scan kinds {uni_kind}, {blocks_kind}")
        if uni_checked != self._expected or blocks_checked != self._expected:
            problems.append(
                f"checked {uni_checked}/{blocks_checked}, reference {self._expected}"
            )
        if counter:
            problems.append(f"block-measure counterexamples {counter[:3]}")
        return problems

    def replay(self) -> int:
        """The scans reach core and spectrum through private helpers only."""
        mk = self.mk
        for n in range(1, self.N_MAX + 1):
            comps = list(ref.compositions(n))
            for top in comps:
                for bottom in comps:
                    m = mk.MeanderType(top, bottom)
                    if mk.core.index_naive(m) != 0:
                        continue
                    mk.spectrum.spectrum(m)
                    for side, comp in (("top", top), ("bottom", bottom)):
                        for k in range(1, len(comp) + 1):
                            mk.spectrum.block_measures(m, side, k)
        return 1


# ---------------------------------------------------------------------------

_QUERY_MIX = {
    "index": 150,
    "check": 150,
    "signature": 120,
    "signature --refined": 100,
    "homotopy": 120,
    "spectrum": 100,
    "diagram": 80,
    "generate": 60,
    "family": 40,
    "malformed": 60,
    "spectrum of non-Frobenius": 18,
}
# isdigit() accepts these superscript digits and int() rejects them, so both
# commands escape cli.run as a ValueError today; the documented exit is 1.
_UNICODE_DIGIT_COMMANDS = (["index", "²/2"], ["enumerate", "²"])


class Query(Workload):
    """One operation: one in-process cli.run command."""

    name = "query"
    percentile = 99.0  # ten of the 1 000 distinct commands of a round lie beyond it
    min_ops = 1000
    trace_ops = 20000
    expected_failures = frozenset(" ".join(argv) for argv in _UNICODE_DIGIT_COMMANDS)

    def __init__(self, mk, seed: int) -> None:
        super().__init__(mk, seed)
        rng = random.Random(seed)
        specs = []
        for kind, count in _QUERY_MIX.items():
            for _ in range(count):
                specs.append(self._spec(rng, kind))
        for argv in _UNICODE_DIGIT_COMMANDS:
            specs.append(("unicode digit", list(argv), None, 1))
        rng.shuffle(specs)
        self.specs = specs
        self.ops = [(" ".join(argv), self._command(argv)) for _, argv, _, _ in specs]

    @staticmethod
    def _frobenius(rng, want: bool):
        while True:
            top, bottom = _few_block_meander(rng, 4, 60, 3)
            if (ref.index(top, bottom) == 0) == want:
                return top, bottom

    def _spec(self, rng, kind):
        """(kind, argv, meander or parameters, expected exit code)."""
        if kind == "spectrum":
            m = self._frobenius(rng, True)
            return kind, ["spectrum", ref.text(*m)], m, 0
        if kind == "spectrum of non-Frobenius":
            m = self._frobenius(rng, False)
            return kind, ["spectrum", ref.text(*m)], m, 2
        if kind == "generate":
            moves, seed = rng.randint(2, 8), rng.randrange(10**6)
            return kind, ["generate", "--moves", str(moves), "--seed", str(seed)], (moves, seed), 0
        if kind == "family":
            a = rng.choice((2, 4, 6, 8))
            b = rng.choice([x for x in range(1, 16) if gcd(a, x) == 1])
            if rng.random() < 0.5:
                k = rng.randint(1, 20)
                argv = ["family", "parabolic", str(a), str(k), str(b)]
                top, bottom = (a,) * k + (b,), (k * a + b,)
            else:
                k, copies = rng.randint(0, 6), rng.randint(1, 6)
                argv = ["family", "biparabolic", str(a), str(b), str(k), str(copies)]
                top, bottom = (a,) * (k + copies) + (b,), (b + k * a,) + (a,) * copies
            return kind, argv, (top, bottom), 0
        m = _few_block_meander(rng, 4, 60, 3)
        if kind == "malformed":
            verb = rng.choice(("index", "check", "signature", "homotopy", "spectrum", "diagram"))
            return kind, [verb, self._malformed(rng, *m)], m, 1
        verb, *flags = kind.split()
        return kind, [verb, ref.text(*m), *flags], m, 0

    @staticmethod
    def _malformed(rng, top, bottom) -> str:
        good = ref.text(top, bottom)
        how = rng.randrange(5)
        if how == 0:  # sums differ
            return ref.text(top, bottom[:-1] + (bottom[-1] + 1,))
        if how == 1:  # a letter for a digit
            return good.replace(str(top[0]), "x", 1)
        if how == 2:  # a zero part
            return "0|" + good
        if how == 3:  # an empty part
            return good.replace("/", "|/", 1)
        return good + "/" + str(sum(top))  # two slashes

    def _command(self, argv):
        cli = self.mk.cli

        def command():
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, out, err)
            return code, out.getvalue(), bool(err.getvalue())

        return command

    @staticmethod
    def warmup(mk) -> None:
        mk.cli.run(["check", "6|1/2|3|2"], io.StringIO(), io.StringIO())

    def check(self, i, summary) -> list[str]:
        kind, argv, data, expected_code = self.specs[i]
        code, out, has_err = summary
        if code != expected_code:
            return [f"{argv}: exit {code}, documented {expected_code}"]
        if code != 0:
            return [] if (out == "" and has_err) else [f"{argv}: output on failure"]
        problem = self._check_output(kind, argv, data, out)
        return [f"{argv}: {problem}"] if problem else []

    @staticmethod
    def _check_output(kind, argv, data, out: str) -> str | None:
        if kind == "generate":
            moves, seed = data
            lines = out.splitlines()
            if lines[1:] != [f"seed={seed} moves={moves}"]:
                return "seed line"
            return None if ref.index(*ref.parse(lines[0])) == 0 else "not Frobenius"
        if kind == "family":
            if out != ref.text(*data) + "\n":
                return "family meander"
            return None if ref.index(*data) == 0 else "family not Frobenius"
        top, bottom = data
        cycles, paths = ref.walk(top, bottom)
        ix = 2 * cycles + paths - 1
        if kind == "index":
            return None if out == f"{ix}\n" else f"index {out!r}, reference {ix}"
        if kind == "check":
            verdict = ("frobenius" if ix == 0 else "not frobenius") + f" index={ix}\n"
            return None if out == verdict else f"verdict {out!r}, reference {verdict!r}"
        if kind.startswith("signature"):
            params = []
            for token in out.split():
                tag, _, rest = token.partition("(")
                if rest:
                    params.append(int(rest.rstrip(")")))
            return None if ref.homotopy_identity(params, cycles, paths) else "identity"
        if kind == "homotopy":
            symbols = out.split()
            if sum(s.count("o") for s in symbols) != cycles:
                return "circles"
            return None if sum(s.count(".") for s in symbols) == paths else "points"
        if kind == "spectrum":
            lines = out.splitlines()
            dims = {int(e): int(d) for e, d in (item.split(":") for item in lines[0].split())}
            if "symmetric=true unbroken=true" not in lines[1]:
                return "flags"
            problems = ref.spectrum_problems(dims, top, bottom)
            return "; ".join(problems) or None
        if kind == "diagram":
            top_arcs, bottom_arcs = len(ref.arcs(top)), len(ref.arcs(bottom))
            if out.count("o") != sum(top):
                return "vertices"
            if out.count(".") != 2 * top_arcs or out.count("'") != 2 * bottom_arcs:
                return "corners"
            return None
        return f"unknown kind {kind}"


# ---------------------------------------------------------------------------


class Wind(Workload):
    """One operation: one meander through the winding layer.

    The round is built so that its median and tail fall inside classes of
    nearly equal cost: eight cheap inputs (four-block gcd shapes and
    generated Frobenius meanders), five two-block meanders with about
    EUCLID_STEPS moves each (the median), and eight families of about
    FAMILY_COPIES blocks (the tail).
    """

    name = "wind"
    percentile = 98.0
    min_ops = 500
    EUCLID_STEPS = 4000
    FAMILY_COPIES = 600

    def __init__(self, mk, seed: int) -> None:
        super().__init__(mk, seed)
        rng = random.Random(seed)
        cases = []  # (label, top, bottom, expected index)
        for _ in range(2):
            a, b = rng.randint(1000, 50000), rng.randint(1000, 50000)
            c = rng.randint(1, a + b - 1)
            cases.append(("four-block a|b/c|d", (a, b), (c, a + b - c), ref.index_four_block(a, b, c)))
            a, b, c = (rng.randint(1000, 30000) for _ in range(3))
            cases.append(("four-block d/a|b|c", (a + b + c,), (a, b, c), ref.index_four_block(a, b, c)))
        for _ in range(4):
            while True:
                m = mk.winding.generate_frobenius(rng.randint(16, 22), rng.randrange(10**6))
                if m.n <= 200000:
                    break
            cases.append(("generate_frobenius", m.top, m.bottom, 0))
        for _ in range(5):
            a = rng.randint(2, 20)
            b = a * self.EUCLID_STEPS + rng.randint(1, a - 1)
            cases.append(("two-block a|b/a+b", (a, b), (a + b,), ref.index_two_block(a, b)))
        for _ in range(4):
            k = self.FAMILY_COPIES + rng.randint(-10, 10)
            b = rng.choice((1, 3, 5, 7, 9))
            cases.append(("parabolic 2|..|2|b", (2,) * k + (b,), (2 * k + b,), 0))
            k, copies = rng.randint(100, 140), self.FAMILY_COPIES + rng.randint(-10, 10)
            top, bottom = (2,) * (k + copies) + (b,), (b + 2 * k,) + (2,) * copies
            cases.append(("biparabolic 2|..|2|b", top, bottom, 0))
        rng.shuffle(cases)
        self.cases = cases
        self.meanders = [mk.MeanderType(top, bottom) for _, top, bottom, _ in cases]
        self.ops = [(label, self._wind(m)) for (label, *_), m in zip(cases, self.meanders)]

    def _wind(self, m):
        winding = self.mk.winding

        def op():
            simplified = winding.signature_simplified(m)
            refined = winding.signature_refined(m)
            return (
                simplified,
                refined,
                winding.index_from_signature(simplified),
                winding.index_from_signature(refined),
                winding.homotopy_type(m),
                winding.wind_up(winding.hat_reversed(simplified)),
            )

        return op

    @staticmethod
    def warmup(mk) -> None:
        w = mk.winding
        m = mk.MeanderType((3, 3 * 4000 + 1), (3 * 4001 + 1,))
        sig = w.signature_simplified(m)
        w.signature_refined(m)
        w.homotopy_type(m)
        w.wind_up(w.hat_reversed(sig))

    def summarize(self, i, result):
        simplified, refined, ix_s, ix_r, ht, rebuilt = result
        return (
            ix_s,
            ix_r,
            len(simplified),
            len(refined),
            ht.parameters(),
            tuple(mv.c for mv in refined if mv.c is not None),
            rebuilt == self.meanders[i],
        )

    def check(self, i, summary) -> list[str]:
        label, top, bottom, expected = self.cases[i]
        ix_s, ix_r, _, _, homotopy, refined_params, round_trip = summary
        problems = []
        if ix_s != expected or ix_r != expected:
            problems.append(f"index {ix_s}/{ix_r}, closed form {expected}")
        cycles, paths = ref.walk(top, bottom)
        for params in (homotopy, refined_params):
            if not ref.homotopy_identity(params, cycles, paths):
                problems.append("homotopy identity")
        if not round_trip:
            problems.append("wind_up(hat_reversed(sig)) differs from the input")
        return [f"{label} n={sum(top)}: {p}" for p in problems]


# ---------------------------------------------------------------------------

# (function, count per round, lowest and highest seaweed dimension, Frobenius
# only).  Costs grow with about the cube of the dimension and vary by a
# factor of two between meanders of one dimension, so every round draws new
# meanders: the median then falls among the nine middle calls of hundreds of
# draws, and the tail among the heaviest index_oracle calls.
_ORACLE_MIX = (
    ("index_oracle", 6, 15, 22, False),
    ("principal_element", 3, 31, 39, True),
    ("ad_spectrum", 3, 31, 39, True),
    ("cybe_residual", 3, 15, 21, True),
    ("index_oracle", 3, 40, 46, False),
    ("index_oracle", 3, 59, 63, True),
)


class Oracle(Workload):
    """One operation: one call into lie's exact linear algebra."""

    name = "oracle"
    percentile = 98.0
    min_ops = 500
    fresh_rounds = True

    def __init__(self, mk, seed: int) -> None:
        super().__init__(mk, seed)
        self.seed = seed
        self.cases: list[list] = []  # per round: (function, top, bottom, oracle seed)
        self.meanders: list[list] = []

    def round(self, r: int):
        rng = random.Random(f"oracle {self.seed} {r}")
        cases = []
        for fn, count, lo, hi, frobenius in _ORACLE_MIX:
            for _ in range(count):
                while True:
                    top, bottom = _few_block_meander(rng, 3, 14, 4)
                    if lo <= ref.admissible_count(top, bottom) <= hi and (
                        not frobenius or ref.index(top, bottom) == 0
                    ):
                        break
                cases.append((fn, top, bottom, rng.randrange(10**6)))
        rng.shuffle(cases)
        meanders = [self.mk.MeanderType(top, bottom) for _, top, bottom, _ in cases]
        self.cases.append(cases)
        self.meanders.append(meanders)
        return [
            (f"{fn} {ref.text(top, bottom)}", self._call(fn, m, s))
            for (fn, top, bottom, s), m in zip(cases, meanders)
        ]

    def _call(self, fn, m, seed):
        lie = self.mk.lie
        if fn == "index_oracle":
            return lambda: lie.index_oracle(m, seed=seed)
        return lambda: getattr(lie, fn)(m)

    @staticmethod
    def warmup(mk) -> None:
        mk.lie.index_oracle(mk.MeanderType((4, 7), (4, 1, 2, 4)))

    def summarize(self, key, result):
        r, i = key
        fn = self.cases[r][i][0]
        if fn == "principal_element":
            return result.diagonal() if result.is_diagonal else None
        return result

    def check(self, key, summary) -> list[str]:
        r, i = key
        fn, top, bottom, _ = self.cases[r][i]
        label = f"{fn} {ref.text(top, bottom)}"
        if fn == "index_oracle":
            expected = ref.index(top, bottom)
            return [] if summary == expected else [f"{label}: {summary}, reference {expected}"]
        if fn == "cybe_residual":
            return [] if summary is True else [f"{label}: residual not zero"]
        if fn == "ad_spectrum":
            problems = ref.spectrum_problems(summary, top, bottom)
            if summary != self.mk.spectrum.spectrum(self.meanders[r][i]):
                problems.append("differs from spectrum()")
            return [f"{label}: {p}" for p in problems]
        diagonal = summary
        if diagonal is None:
            return [f"{label}: not diagonal"]
        if sum(diagonal) != 0:
            return [f"{label}: trace {sum(diagonal)}"]
        dims: dict[int, int] = {}
        for p, q in ref.admissible_pairs(top, bottom):
            e = diagonal[p - 1] - diagonal[q - 1]
            if Fraction(e).denominator != 1:
                return [f"{label}: eigenvalue {e}"]
            dims[int(e)] = dims.get(int(e), 0) + 1
        dims[0] -= 1
        if not dims[0]:
            del dims[0]
        return [f"{label}: {p}" for p in ref.spectrum_problems(dims, top, bottom)]


WORKLOADS = {w.name: w for w in (Scan, Query, Wind, Oracle)}
