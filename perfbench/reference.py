"""Reference code the benchmark checks meanderkit against.

Nothing here imports meanderkit.  The component count uses union-find over
the arcs rather than the package's walk along partner arrays: a component
is a cycle exactly when it has as many arcs as vertices.
"""

from __future__ import annotations

from math import gcd


def parse(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``a|b/c|d`` to ((a, b), (c, d)); ASCII digits only, equal sums."""
    top_text, bottom_text = text.split("/")

    def comp(part: str) -> tuple[int, ...]:
        out = []
        for item in part.split("|"):
            item = item.strip()
            if not item or not all("0" <= ch <= "9" for ch in item) or int(item) < 1:
                raise ValueError(f"bad part {item!r} in {text!r}")
            out.append(int(item))
        return tuple(out)

    top, bottom = comp(top_text), comp(bottom_text)
    if sum(top) != sum(bottom):
        raise ValueError(f"sums differ in {text!r}")
    return top, bottom


def text(top, bottom) -> str:
    return "|".join(map(str, top)) + "/" + "|".join(map(str, bottom))


def arcs(comp) -> list[tuple[int, int]]:
    """Nested arcs of the blocks of one composition, vertices 1..n."""
    out = []
    start = 1
    for k in comp:
        for d in range(k // 2):
            out.append((start + d, start + k - 1 - d))
        start += k
    return out


def walk(top, bottom) -> tuple[int, int]:
    """(cycles, paths) of the arc diagram."""
    n = sum(top)
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = arcs(top) + arcs(bottom)
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    size = [0] * (n + 1)
    arc_count = [0] * (n + 1)
    for v in range(1, n + 1):
        size[find(v)] += 1
    for u, _ in edges:
        arc_count[find(u)] += 1
    cycles = paths = 0
    for v in range(1, n + 1):
        if parent[v] == v:
            if arc_count[v] == size[v]:
                cycles += 1
            else:
                paths += 1
    return cycles, paths


def index(top, bottom) -> int:
    """2 * cycles + paths - 1."""
    cycles, paths = walk(top, bottom)
    return 2 * cycles + paths - 1


def compositions(n: int):
    """All compositions of n, each as a tuple."""
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for bit in range(n - 1):
            if mask >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def frobenius_count(n_max: int) -> int:
    """Frobenius meanders of every order 1..n_max, by the reference walk."""
    count = 0
    for n in range(1, n_max + 1):
        comps = list(compositions(n))
        for top in comps:
            for bottom in comps:
                if index(top, bottom) == 0:
                    count += 1
    return count


def index_two_block(a: int, b: int) -> int:
    """Index of a|b / a+b."""
    return gcd(a, b) - 1


def index_four_block(a: int, b: int, c: int) -> int:
    """Index of a|b / c|d (a+b = c+d) and of d / a|b|c (d = a+b+c)."""
    return gcd(a + b, b + c) - 1


def homotopy_identity(params, cycles: int, paths: int) -> bool:
    """Elimination parameters c: sum(c // 2) = cycles, #odd c = paths."""
    params = list(params)
    return (
        sum(c // 2 for c in params) == cycles
        and sum(1 for c in params if c % 2) == paths
    )


def admissible_count(top, bottom) -> int:
    return (sum(a * a for a in top) + sum(b * b for b in bottom)) // 2


def admissible_pairs(top, bottom) -> list[tuple[int, int]]:
    """(i, j) with i >= j in one top block, or i < j in one bottom block."""
    out = []
    start = 1
    for k in top:
        out += [(i, j) for i in range(start, start + k) for j in range(start, i + 1)]
        start += k
    start = 1
    for k in bottom:
        out += [(i, j) for i in range(start, start + k) for j in range(i + 1, start + k)]
        start += k
    return out


def spectrum_problems(dims: dict, top, bottom) -> list[str]:
    """What a Frobenius spectrum violates: total, symmetry about 1/2, gaps."""
    problems = []
    total = admissible_count(top, bottom) - 1
    if sum(dims.values()) != total:
        problems.append(f"dimensions sum to {sum(dims.values())}, not {total}")
    if any(d < 1 for d in dims.values()):
        problems.append("an eigenvalue has no dimension")
    if dims:
        lo, hi = min(dims), max(dims)
        if hi != 1 - lo or any(dims.get(e, 0) != dims.get(1 - e, 0) for e in dims):
            problems.append("not symmetric about 1/2")
        if any(e not in dims for e in range(lo, hi + 1)):
            problems.append("broken")
    return problems
