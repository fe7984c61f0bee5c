"""Spans around calls into meanderkit's layers, for the traced run.

The tracer replaces every public function of each layer module (the names
in its ``__all__``) by a wrapper that records a span, and patches every
attribute of the package's modules that refers to the original, so that
calls from one module into another are seen too.  Calls to private helpers
stay inside the caller's span.  Spans are kept in memory and written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time

LAYERS = ("core", "winding", "spectrum", "formulas", "lie", "lab", "cli")


def _blocks(m) -> int:
    return len(m.top) + len(m.bottom)


def _pairs(m) -> int:
    return (sum(a * a for a in m.top) + sum(b * b for b in m.bottom)) // 2


def _block_pairs(args) -> int:
    m, side, k = args[:3]
    comp = m.top if side == "top" else m.bottom
    size = comp[k - 1] if 1 <= k <= len(comp) else 0
    return size * (size + 1) // 2 if side == "top" else size * (size - 1) // 2


def _winding_counts(args, result) -> dict:
    first = args[0] if args else None
    if hasattr(first, "top"):
        counts = {"blocks": _blocks(first)}
        if isinstance(result, list):
            counts["moves"] = len(result)
        return counts
    if hasattr(result, "top"):
        return {"blocks": _blocks(result)}
    return {}


# The work each span counts, from its arguments and result: the bases of
# the per-layer ratios.
_COUNTS = {
    "core.index_naive": lambda args, result: {"vertices": args[0].n},
    "core.build_graph": lambda args, result: {"vertices": args[0].n},
    "core.components": lambda args, result: {"vertices": args[0].n},
    "spectrum.spectrum": lambda args, result: {"pairs": _pairs(args[0])},
    "spectrum.admissible_pairs": lambda args, result: {"pairs": len(result)},
    "spectrum.block_measures": lambda args, result: {"pairs": _block_pairs(args)},
    "spectrum.measure": lambda args, result: {"pairs": 1},
    "lab.scan_unimodality": lambda args, result: {"found": result.checked},
    "lab.scan_block_measures": lambda args, result: {"found": result.checked},
}


class Tracer:
    """Records spans as [id, parent, op, name, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, mk) -> None:
        """Wrap the layers of ``mk``, as returned by run.import_package."""
        modules = [getattr(mk, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in [mk.package] + modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        if name.startswith("winding."):
            count = _winding_counts
        else:
            count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, self.op, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if count is not None:
                record[6] = count(args, result) or None
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, counts in self.spans:
                row = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start, "end": end}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


def layer_metrics(spans: list[list], passes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from spans.

    ``passes`` maps a span group ("timed" for ops with op >= 0, "replay"
    for op < 0) to the number of rounds it covered; busy times and move
    counts are per round of their group.  A layer a workload never reaches
    reports 0.
    """
    child = [0.0] * len(spans)
    for sid, parent, _op, _name, start, end, _counts in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    unit_self: dict[str, float] = {}
    units: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    commands = 0
    cli_self = 0.0
    moves = 0.0
    for sid, _parent, op, name, start, end, counts in spans:
        layer = name.split(".", 1)[0]
        rounds = passes["timed" if op >= 0 else "replay"] or 1
        own = end - start - child[sid]
        busy[layer] += own / rounds
        durations.setdefault(name, []).append(end - start)
        if layer == "cli":
            cli_self += own
            commands += name == "cli.run"
        if counts:
            for unit, value in counts.items():
                if unit == "moves":
                    moves += value / rounds
                    continue
                unit_self[unit] = unit_self.get(unit, 0.0) + own
                units[unit] = units.get(unit, 0) + value

    def ratio(unit: str, scale: float) -> float:
        return unit_self[unit] / units[unit] * scale if units.get(unit) else 0.0

    def median_ms(*names: str) -> float:
        values = [d for n in names for d in durations.get(n, ())]
        return statistics.median(values) * 1e3 if values else 0.0

    return {
        "core.busy_s": busy["core"],
        "core.ns_per_vertex": ratio("vertices", 1e9),
        "cli.busy_s": busy["cli"],
        "cli.us_per_command": cli_self / commands * 1e6 if commands else 0.0,
        "winding.busy_s": busy["winding"],
        "winding.us_per_block": ratio("blocks", 1e6),
        "winding.moves": moves,
        "spectrum.busy_s": busy["spectrum"],
        "spectrum.ns_per_pair": ratio("pairs", 1e9),
        "lie.busy_s": busy["lie"],
        "lie.index_oracle_ms": median_ms("lie.index_oracle"),
        "lie.kirillov_matrix_ms": median_ms("lie.kirillov_matrix"),
        "lie.principal_element_ms": median_ms("lie.principal_element"),
        "lie.cybe_residual_ms": median_ms("lie.cybe_residual"),
        "lab.scan_ms": median_ms("lab.scan_unimodality", "lab.scan_block_measures"),
        "lab.us_per_found": ratio("found", 1e6),
    }
