"""Span and counter tracing of crprolong, installed from outside the package.

The tracer wraps the public functions of every layer (the names in each
module's ``__all__``, plus ``cli.main`` and a few public methods).  Modules
bind names such as ``kernel_basis`` through ``from .exact import ...``, so a
wrapper replaces the original object under every name that binds it in any
``crprolong`` module, not only in the defining module.  ``uninstall``
restores all of them.

Each span records name, start, end, parent and the unit it belongs to;
self time is the span's duration minus the time covered by its children,
so work done in an unwrapped helper lands in its caller's layer.  Every
solve in ``exact`` also records the size of the system: rows, unknowns,
nonzeros, rank, the largest numerator/denominator bit length of the
result, and whether it was inconsistent.  Counting runs on a paused clock,
so it does not show up in any span's time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("exact", "freelie", "liealg", "prolong", "crmodels", "frames", "poly", "bch", "cli")

# public methods and entry points that are not listed in ``__all__``
EXTRA_TARGETS = (
    ("exact", "Echelon.__init__", "exact.Echelon"),
    ("exact", "Echelon.reduce", "exact.Echelon.reduce"),
    ("bch", "GroupLaw.associativity_residual", "bch.GroupLaw.associativity_residual"),
    ("cli", "main", "cli.main"),
)

# spans whose calls are linear solves (as opposed to cheap reductions)
SOLVES = frozenset(
    ["exact.kernel_basis", "exact.solve_linear", "exact.rank", "exact.invert", "exact.Echelon"]
)

GATES = frozenset(
    "liealg." + n
    for n in ("check_jacobi", "check_grading", "is_fundamental", "is_nondegenerate_symbol", "is_pseudocomplex")
)


def _max_bits(values) -> int:
    bits = 0
    for x in values:
        for f in (x.re, x.im):
            bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
    return bits


def _nonzeros(rows) -> int:
    return sum(1 for row in rows for x in row if x)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, unit, start, end, self_s, attrs]
        self.solves = []  # [span id, stage, rows, unknowns, nonzeros, rank, max_bits, inconsistent]
        self.units = []  # unit names; a span's unit field indexes this list
        self._stack = []  # open spans: [id, name, start, child_s, attrs]
        self._paused = 0.0
        self._next_id = 0
        self._unit = -1
        self._restore = []

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _pause(self, t0: float):
        self._paused += time.perf_counter() - t0

    # -- spans -----------------------------------------------------------

    def begin_unit(self, name: str):
        self.units.append(name)
        self._unit = len(self.units) - 1

    def open(self, name: str, attrs=None) -> list:
        entry = [self._next_id, name, 0.0, 0.0, attrs]
        self._next_id += 1
        self._stack.append(entry)
        entry[2] = self.now()
        return entry

    def close(self, entry: list) -> int:
        end = self.now()
        top = self._stack.pop()
        assert top is entry, "spans closed out of order"
        dur = end - entry[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append(
            [entry[0], parent[0] if parent else -1, entry[1], self._unit, entry[2], end, dur - entry[3], entry[4]]
        )
        return entry[0]

    def _stage(self) -> str:
        for entry in reversed(self._stack):
            if not entry[1].startswith("exact."):
                name = entry[1]
                if entry[4]:
                    name += "[" + ",".join(f"{k}={v}" for k, v in entry[4].items()) + "]"
                return name
        return "bench"

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items() if name == "crprolong" or name.startswith("crprolong.")}
        targets = []
        for layer in LAYERS:
            mod = modules[f"crprolong.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type):
                    targets.append((mod, attr, f"{layer}.{attr}"))
        for layer, path, name in EXTRA_TARGETS:
            owner = modules[f"crprolong.{layer}"]
            *cls, attr = path.split(".")
            for c in cls:
                owner = getattr(owner, c)
            targets.append((owner, attr, name))
        exact = modules["crprolong.exact"]
        self._rank = exact.rank
        self._inconsistent = exact.Inconsistent
        for owner, attr, name in targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        attrs = _ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = tracer.open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                sid = tracer.close(entry)
                if counter is not None and isinstance(exc, tracer._inconsistent):
                    tracer._count(sid, counter, args, None, exc)
                raise
            sid = tracer.close(entry)
            if counter is not None:
                tracer._count(sid, counter, args, result, None)
            return result

        return wrapper

    def _count(self, sid, counter, args, result, exc):
        t0 = time.perf_counter()
        rows, unknowns, nonzeros, rank, bits = counter(self, args, result, exc)
        self.solves.append([sid, self._stage(), rows, unknowns, nonzeros, rank, bits, int(exc is not None)])
        self._pause(t0)

    # -- reports ---------------------------------------------------------

    def to_json(self, meta: dict) -> str:
        return json.dumps(
            {
                "meta": meta,
                "units": self.units,
                "span_fields": ["id", "parent", "name", "unit", "start", "end", "self_s", "attrs"],
                "spans": self.spans,
                "solve_fields": ["span", "stage", "rows", "unknowns", "nonzeros", "rank", "max_bits", "inconsistent"],
                "solves": self.solves,
            }
        )


# -- solve counters: (rows, unknowns, nonzeros, rank, max_bits) -------------


def _count_kernel(tracer, args, result, exc):
    m = args[0]
    return m.rows, m.cols, _nonzeros(m.data), m.cols - len(result), _max_bits(x for v in result for x in v)


def _count_solve(tracer, args, result, exc):
    m = args[0]
    bits = 0 if result is None else _max_bits(result)
    return m.rows, m.cols, _nonzeros(m.data), tracer._rank(m), bits


def _count_rank(tracer, args, result, exc):
    m = args[0]
    return m.rows, m.cols, _nonzeros(m.data), result, 0


def _count_invert(tracer, args, result, exc):
    m = args[0]
    return m.rows, m.cols, _nonzeros(m.data), m.rows, _max_bits(x for row in result.data for x in row)


def _count_echelon(tracer, args, result, exc):
    ech, rows, cols = args[0], args[1], args[2]
    rows = list(rows)
    return len(rows), cols, _nonzeros(rows), ech.rank, _max_bits(x for row in ech.rows for x in row)


_COUNTERS = {
    "exact.kernel_basis": _count_kernel,
    "exact.solve_linear": _count_solve,
    "exact.rank": _count_rank,
    "exact.invert": _count_invert,
    "exact.Echelon": _count_echelon,
}

_ATTRS = {"prolong.prolong_component": lambda m, components, l: {"l": l}}


# -- per-layer metrics -------------------------------------------------------


# per-layer metric -> spans whose self time (".s") or call count (".calls") it sums
SELF_TIME = {
    "prolong.grade0.s": {"prolong.grade0"},
    "prolong.component.s": {"prolong.prolong_component"},
    "prolong.assemble.s": {"prolong.full_prolongation"},
    "crmodels.rotation.s": {"crmodels.rotation_derivation"},
    "crmodels.aut.s": {"crmodels.build_aut_cr"},
    "crmodels.verify.self_s": {"crmodels.verify_theorem", "crmodels.verify_heisenberg"},
    "liealg.symbol.s": {"liealg.build_symbol_algebra"},
    "liealg.real_form.s": {"liealg.real_form", "liealg.realify"},
    "liealg.gates.s": GATES,
    "liealg.iso_check.s": {"liealg.first_bracket_mismatch", "liealg.is_graded_isomorphism"},
    "frames.catalog.s": {"frames.builtin_catalog"},
    "frames.growth.s": {"frames.growth_and_nondegeneracy"},
    "frames.symbol_from_frame.s": {"frames.symbol_from_frame"},
    "poly.vf_bracket.s": {"poly.vf_bracket"},
    "bch.frame.s": {"bch.left_invariant_frame"},
    "bch.assoc.s": {"bch.GroupLaw.associativity_residual"},
    "bch.series.s": {"bch.bch_series"},
    "cli.main.self_s": {"cli.main"},
}
CALLS = {
    "exact.calls": SOLVES,
    "prolong.transitive.calls": {"prolong.is_transitive"},
    "liealg.gates.calls": GATES,
    "freelie.hall_rewrite.calls": {"freelie.hall_rewrite"},
    "poly.vf_bracket.calls": {"poly.vf_bracket"},
}
# per-layer metric -> stage prefix whose solve unknowns it sums
STAGE_UNKNOWNS = {
    "prolong.grade0.unknowns": "prolong.grade0",
    "prolong.component.unknowns": "prolong.prolong_component",
    "crmodels.rotation.unknowns": "crmodels.rotation_derivation",
}


def layer_metrics(tracer: Tracer, span_lo: int, solve_lo: int) -> dict:
    """Per-layer metrics over the spans and solves recorded since the marks."""
    spans = tracer.spans[span_lo:]
    solves = tracer.solves[solve_lo:]
    rows = sum(s[2] for s in solves)
    rank = sum(s[5] for s in solves)
    out = {
        "exact.s": sum(s[6] for s in spans if s[2].startswith("exact.")),
        "exact.rows": rows,
        "exact.unknowns": sum(s[3] for s in solves),
        "exact.nonzeros": sum(s[4] for s in solves),
        "exact.rank": rank,
        "exact.useful_row_ratio": rank / rows if rows else 0.0,
        "exact.max_bits": max((s[6] for s in solves), default=0),
        "exact.inconsistent": sum(s[7] for s in solves),
        "freelie.s": sum(s[6] for s in spans if s[2].startswith("freelie.")),
    }
    for name, names in SELF_TIME.items():
        out[name] = sum(s[6] for s in spans if s[2] in names)
    for name, names in CALLS.items():
        out[name] = sum(1 for s in spans if s[2] in names)
    for name, prefix in STAGE_UNKNOWNS.items():
        out[name] = sum(s[3] for s in solves if s[1].startswith(prefix))
    return out


def stage_table(solves) -> dict:
    """Solve sizes grouped by the enclosing stage span."""
    out = {}
    for _sid, stage, rows, unknowns, nonzeros, rank, bits, bad in solves:
        s = out.setdefault(stage, {"calls": 0, "rows": 0, "unknowns": 0, "nonzeros": 0, "rank": 0, "max_bits": 0, "inconsistent": 0})
        s["calls"] += 1
        s["rows"] += rows
        s["unknowns"] += unknowns
        s["nonzeros"] += nonzeros
        s["rank"] += rank
        s["max_bits"] = max(s["max_bits"], bits)
        s["inconsistent"] += bad
    return dict(sorted(out.items()))
