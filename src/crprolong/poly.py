"""Exact multivariate polynomials and polynomial vector fields.

Polynomials are sparse exponent-tuple maps with Gaussian rational
coefficients.  A chart fixes coordinate names plus the index permutation
that formal conjugation applies (z and zbar swap on a rigid model chart;
real charts conjugate coefficients only).
"""

from __future__ import annotations

from .exact import QI_ZERO, as_qi, qi_from_json

__all__ = [
    "Chart",
    "Poly",
    "PolyVectorField",
    "ChartMismatch",
    "rigid_chart",
    "real_chart",
    "vf_bracket",
]


class ChartMismatch(ValueError):
    """Vector fields live on different coordinate charts."""


class Chart:
    def __init__(self, names: tuple, conj_perm: tuple):
        # messages name the fields of to_json_dict: "chart" holds the names
        for i, name in enumerate(names):
            if not isinstance(name, str):
                raise ValueError(f"chart[{i}]: must be a string, got {name!r}")
        for i, p in enumerate(conj_perm):
            if type(p) is not int:
                raise ValueError(f"conj_perm[{i}]: must be an integer, got {p!r}")
        if sorted(conj_perm) != list(range(len(names))):
            raise ValueError(f"conj_perm: must be a permutation of 0..{len(names) - 1}")
        if any(conj_perm[p] != i for i, p in enumerate(conj_perm)):
            raise ValueError("conj_perm: must be an involution")
        self.names = names
        self.conj_perm = conj_perm

    def __eq__(self, other):
        if not isinstance(other, Chart):
            return NotImplemented
        return (self.names, self.conj_perm) == (other.names, other.conj_perm)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def display_name(self, i: int) -> str:
        name = self.names[i]
        return "z̄" if name == "zbar" else name


def rigid_chart(k: int) -> Chart:
    """(z, zbar, u1..uk) with conjugation swapping the first two."""
    names = ("z", "zbar") + tuple(f"u{j}" for j in range(1, k + 1))
    perm = (1, 0) + tuple(range(2, k + 2))
    return Chart(names, perm)


def real_chart(names) -> Chart:
    names = tuple(names)
    return Chart(names, tuple(range(len(names))))


class Poly:
    """Sparse polynomial: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = as_qi(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict) -> "Poly":
        """The polynomial whose ``terms`` are already {exponent tuple: nonzero QI}, taken as they are."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: as_qi(c)})

    @classmethod
    def var(cls, nvars: int, i: int, c=1) -> "Poly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): as_qi(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            nc = terms.get(e, QI_ZERO) + c
            if nc:
                terms[e] = nc
            else:
                terms.pop(e, None)
        return Poly._from_terms(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = as_qi(c)
        return Poly._from_terms(self.nvars, {e: x * c for e, x in self.terms.items()} if c else {})

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def mul(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                nc = terms.get(e, QI_ZERO) + ca * cb
                if nc:
                    terms[e] = nc
                else:
                    terms.pop(e, None)
        return Poly._from_terms(self.nvars, terms)

    def diff(self, i: int) -> "Poly":
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return Poly(self.nvars, terms)

    def permuted(self, perm, conj=False) -> "Poly":
        """Permute variables (new index p -> old exps) and optionally conjugate."""
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, x in enumerate(e):
                ne[perm[i]] = x
            terms[tuple(ne)] = c.conj() if conj else c
        return Poly(self.nvars, terms)

    def extend_vars(self, nvars: int) -> "Poly":
        """Reinterpret in a chart with extra trailing variables."""
        if nvars < self.nvars:
            raise ValueError("cannot drop variables")
        pad = (0,) * (nvars - self.nvars)
        return Poly(nvars, {e + pad: c for e, c in self.terms.items()})

    def pretty(self, names) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = " ".join(
                (f"{names[i]}" if x == 1 else f"{names[i]}^{x}") for i, x in enumerate(e) if x
            )
            cs = str(c)
            if mono:
                if cs == "1":
                    bits.append(mono)
                elif cs == "-1":
                    bits.append(f"-{mono}")
                else:
                    cs = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
                    bits.append(f"{cs} {mono}")
            else:
                bits.append(cs)
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"re": str(c.re), "im": str(c.im), "exp": list(e)}
                for e, c in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: dict, nvars: int) -> "Poly":
        """Inverse of :meth:`to_json_dict`.

        A malformed object raises ValueError naming its field path, such
        as ``terms[0].exp: must be a list of 2 non-negative integers``.
        """
        terms = {}
        for n, t in enumerate(_json_list(obj, "terms")):
            if not isinstance(t, dict):
                raise ValueError(f"terms[{n}]: must be an object")
            e = t.get("exp")
            if not (isinstance(e, list) and len(e) == nvars and all(type(x) is int and x >= 0 for x in e)):
                raise ValueError(f"terms[{n}].exp: must be a list of {nvars} non-negative integers, got {e!r}")
            terms[tuple(e)] = qi_from_json(t, f"terms[{n}]")
        return cls(nvars, terms)


class PolyVectorField:
    """First-order differential operator sum_i f_i(x) d/dx_i on a chart."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        comps = tuple(comps)
        if len(comps) != chart.nvars:
            raise ValueError("one component per coordinate required")
        for c in comps:
            if c.nvars != chart.nvars:
                raise ValueError("component variable count mismatch")
        self.chart = chart
        self.comps = comps

    @classmethod
    def zero(cls, chart: Chart) -> "PolyVectorField":
        return cls(chart, [Poly.zero(chart.nvars)] * chart.nvars)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVectorField)
            and self.chart == other.chart
            and self.comps == other.comps
        )

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        self._same_chart(other)
        return PolyVectorField(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        self._same_chart(other)
        return PolyVectorField(self.chart, [a - b for a, b in zip(self.comps, other.comps)])

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField(self.chart, [p.scale(c) for p in self.comps])

    def _same_chart(self, other):
        if self.chart != other.chart:
            raise ChartMismatch("fields live on different charts")

    def apply_to(self, f: Poly) -> Poly:
        out = Poly.zero(self.chart.nvars)
        for i, comp in enumerate(self.comps):
            if not comp.is_zero():
                out = out + comp.mul(f.diff(i))
        return out

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Commutator [self, other]: exact, bilinear, antisymmetric."""
        self._same_chart(other)
        comps = []
        for i in range(self.chart.nvars):
            comps.append(self.apply_to(other.comps[i]) - other.apply_to(self.comps[i]))
        return PolyVectorField(self.chart, comps)

    def conj(self) -> "PolyVectorField":
        """Formal conjugation: conjugate coefficients, permute chart variables."""
        perm = self.chart.conj_perm
        new_comps = [None] * self.chart.nvars
        for i, comp in enumerate(self.comps):
            new_comps[perm[i]] = comp.permuted(perm, conj=True)
        return PolyVectorField(self.chart, new_comps)

    def pretty(self) -> str:
        bits = []
        for i, comp in enumerate(self.comps):
            if comp.is_zero():
                continue
            ptxt = comp.pretty([self.chart.display_name(j) for j in range(self.chart.nvars)])
            if " + " in ptxt or " - " in ptxt:
                ptxt = f"({ptxt})"
            prefix = "" if ptxt == "1" else f"{ptxt} "
            if ptxt == "-1":
                prefix = "-"
            bits.append(f"{prefix}∂_{self.chart.display_name(i)}")
        if not bits:
            return "0"
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def to_json_dict(self) -> dict:
        return {
            "chart": list(self.chart.names),
            "conj_perm": list(self.chart.conj_perm),
            "components": [c.to_json_dict() for c in self.comps],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PolyVectorField":
        """Inverse of :meth:`to_json_dict`; errors name their field path."""
        names, perm, entries = (_json_list(obj, key) for key in ("chart", "conj_perm", "components"))
        chart = Chart(tuple(names), tuple(perm))
        comps = []
        for i, c in enumerate(entries):
            try:
                comps.append(Poly.from_json_dict(c, chart.nvars))
            except ValueError as exc:
                raise ValueError(f"components[{i}]: {exc}") from exc
        return cls(chart, comps)


def _json_list(obj, key: str) -> list:
    """The list ``obj[key]`` of a JSON object; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("must be an object")
    if key not in obj:
        raise ValueError(f"missing {key!r}")
    if not isinstance(obj[key], list):
        raise ValueError(f"{key}: must be a list")
    return obj[key]


def vf_bracket(a: PolyVectorField, b: PolyVectorField) -> PolyVectorField:
    return a.bracket(b)
