"""Exact multivariate polynomials and polynomial vector fields.

Polynomials are sparse exponent-tuple maps with Gaussian rational
coefficients.  A chart fixes coordinate names plus the index permutation
that formal conjugation applies (z and zbar swap on a rigid model chart;
real charts conjugate coefficients only).

Field arithmetic runs on one packed form, which :class:`Poly` meets only
at its edges (JSON, text, the catalog's defining polynomials).  On n
variables and a bit width w, a monomial is one ``int``: the exponent of
variable j sits in bit field j, bits w·j to w·j + w - 1, so a product of
monomials is one integer addition.  A complex form carries the power of
i, 0 or 1, in the one bit above the last field, ``1 << w·n``: the real
part of a coefficient sits at its monomial e, the imaginary part at
e | (1 << w·n), and a product of two parts has its power of i in the two
bits from there, which ``_bracket`` folds once by i² = -1.  A polynomial
is a dict ``{monomial: int numerator}``, zeros dropped, and a field a
list of them over one positive ``int`` denominator, ``([comp], den)``.
A polynomial on fewer variables packs onto the first bit fields, so the
defining polynomials of a rigid model, in (z, zbar), pack as they are on
its chart (z, zbar, u_1..u_k).
Every exponent the arithmetic makes must fit in w bits: ``_width`` sizes
w for products of a given number of input monomials (two for a bracket,
the word length for ``frames``' bracket words).  ``bch`` evaluates its
group law on real forms of the same layout.
"""

from __future__ import annotations

from itertools import chain
from operator import lshift

from .exact import QI_ZERO, _entries, _gaussian_integers, _key, _qi, as_qi, qi_from_json

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

    __mul__ = __rmul__ = scale

    def permuted(self, perm, conj=False) -> "Poly":
        """Permute variables (new index p -> old exps) and optionally conjugate."""
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, x in enumerate(e):
                ne[perm[i]] = x
            terms[tuple(ne)] = c.conj() if conj else c
        return Poly(self.nvars, terms)

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

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Commutator [self, other]: exact, bilinear, antisymmetric."""
        self._same_chart(other)
        n = self.chart.nvars
        # each term is a product of a component of one and a partial of the other
        width = _width(self.comps + other.comps, 2)
        U, V = _pack(self.comps, n, width), _pack(other.comps, n, width)
        comps, den = _bracket(U, V, _partials(U[0], n, width), _partials(V[0], n, width), n, width)
        return PolyVectorField(self.chart, [_decode(c, den, n, width) for c in comps])

    def conj(self) -> "PolyVectorField":
        """Formal conjugation: conjugate coefficients, permute chart variables."""
        n = self.chart.nvars
        width = _width(self.comps, 1)
        comps, den = _conjugate(_pack(self.comps, n, width), self.chart.conj_perm, width)
        return PolyVectorField(self.chart, [_decode(c, den, n, width) for c in comps])

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


# -- the packed form (module docstring) ---------------------------------------


def _width(polys, factors: int) -> int:
    """The bit width that holds every exponent of a product of ``factors`` monomials of ``polys``."""
    return max(factors * max(chain.from_iterable(chain.from_iterable(p.terms for p in polys)), default=0), 1).bit_length()


def _pack(polys, nvars: int, width: int):
    """The polynomials ``polys`` on ``nvars`` variables as one packed complex form ``([comp], den)``, over the lcm of their denominators."""
    # term t of the concatenated term lists is at (component, monomial) = where[t]
    shifts = range(0, width * nvars, width)
    where = [(i, sum(map(lshift, e, shifts))) for i, p in enumerate(polys) for e in p.terms]
    nums, den = _gaussian_integers(enumerate(c for p in polys for c in p.terms.values()))
    comps = [{} for _ in polys]
    for t, turn, x in _entries(nums):
        i, mono = where[t]
        comps[i][mono | turn << width * nvars] = x
    return comps, den


def _decode(comp: dict, den: int, nvars: int, width: int) -> Poly:
    """The packed polynomial comp/den, real or complex, as a Poly on ``nvars`` variables.

    The real part at monomial e and the imaginary part at e | ibit are
    summed into one ``QI``; a monomial with both parts zero is dropped.
    Each monomial is decoded only through its nonzero bit fields.
    """
    mask, ibit = (1 << width) - 1, 1 << width * nvars
    terms = {}
    for e, x in comp.items():
        if e >= ibit and e - ibit in comp:
            continue  # read with its real part
        e, x, y = (e, x, comp.get(e | ibit, 0)) if e < ibit else (e - ibit, 0, x)
        if x or y:
            exps = [0] * nvars
            while e:
                j = ((e & -e).bit_length() - 1) // width
                exps[j] = a = (e >> width * j) & mask
                e -= a << width * j
            terms[tuple(exps)] = _qi(x, y, den)
    return Poly._from_terms(nvars, terms)


def _conjugate(form, perm, width: int):
    """The formal conjugate of the packed complex field ``form``: variable and component j move to perm[j], and imaginary parts change sign."""
    comps, den = form
    mask, ibit = (1 << width) - 1, 1 << width * len(perm)
    shifts = [width * j for j in range(len(perm))]
    moved = [shifts[p] for p in perm]
    out = [None] * len(comps)
    for i, comp in enumerate(comps):
        conj = {}
        for e, x in comp.items():
            rest = e & (ibit - 1)
            mono = e - rest
            while rest:  # through the nonzero fields only
                j = ((rest & -rest).bit_length() - 1) // width
                a = (rest >> shifts[j]) & mask
                mono |= a << moved[j]
                rest -= a << shifts[j]
            conj[mono] = -x if e >= ibit else x
        out[perm[i]] = conj
    return out, den


def _partials(comps, nvars: int, width: int) -> dict:
    """{(i, j): d_j of comps[i]} of packed polynomials on ``nvars`` variables, the nonzero ones only."""
    mask, low = (1 << width) - 1, (1 << width * nvars) - 1
    out = {}
    for i, comp in enumerate(comps):
        for e, x in comp.items():
            rest, s, j = e & low, 0, 0
            while rest:
                if a := rest & mask:
                    d = out.setdefault((i, j), {})
                    d[e - (1 << s)] = a * x
                rest >>= width
                s += width
                j += 1
    return out


def _mul_into(acc: dict, p: dict, q: dict, scale: int):
    """acc += scale · p · q on packed monomials (zeros are dropped later)."""
    for ea, ca in p.items():
        ca *= scale
        for eb, cb in q.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + ca * cb


def _bracket(U, V, dU: dict, dV: dict, nvars: int, width: int):
    """[U, V]_i = sum_j U_j·d_jV_i - V_j·d_jU_i of packed complex fields, over the product of their denominators.

    ``dU`` and ``dV`` are their ``_partials``.  The result has one
    component per component of V; with ``dU`` empty it is U(V_i), U
    applied to each component of V.
    """
    (uc, ud), (vc, vd) = U, V
    out = [{} for _ in vc]
    for (i, j), d in dV.items():
        if uc[j]:
            _mul_into(out[i], uc[j], d, 1)
    for (i, j), d in dU.items():
        if vc[j]:
            _mul_into(out[i], vc[j], d, -1)
    # each factor carries i to the power 0 or 1, so i^2 = -1 folds once
    two = 2 << width * nvars
    for acc in out:
        for e in [e for e in acc if e >= two]:
            acc[e - two] = acc.get(e - two, 0) - acc.pop(e)
    return [{e: x for e, x in acc.items() if x} for acc in out], ud * vd


def _constant_terms(form, nvars: int, width: int):
    """The value at the origin of the packed complex field ``form`` on ``nvars`` variables, its constant terms, as ``({t: re, ~t: im}, den)``."""
    comps, den = form
    return {_key(t, turn): x for turn in (0, 1) for t, c in enumerate(comps) if (x := c.get(turn << width * nvars))}, den
