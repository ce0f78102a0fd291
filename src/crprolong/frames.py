"""Polynomial realizations of the CR models.

A rigid model is the graph w_j - wbar_j = 2i·phi_j(z, zbar) with real
weighted-homogeneous defining polynomials; its tangential CR field on the
intrinsic chart (z, zbar, u_1..u_k) is d/dz + i·sum_j (dphi_j/dz) d/du_j.
Models may instead carry an explicit CR field (used for lengths that have
no rigid polynomial representative): the growth and symbol machinery only
ever consumes the field.

The growth vector is computed by evaluating the basis bracket words of
the field and its conjugate at the origin; total nondegeneracy means the
filtration is as free as possible below the minimal length and fills the
tangent space exactly there.  The word values are exact and computed
fraction-free: the shorter words are bracketed on packed Gaussian
monomials with integer numerators over one denominator per word, each
origin coordinate becomes a ``Fraction`` once, and the words of the
minimal length are read at the origin only, from the constant and linear
terms of their two factors.  When it holds, the length-rho evaluation
kernel is the model-induced top-layer quotient and the symbol algebra is
rebuilt from it through the same constructor as every other quotient.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .bch import _mul_into, left_invariant_frame
from .exact import Echelon, Matrix, QI, QI_ZERO, as_qi, kernel_basis
from .freelie import cumulative_dim, hall_basis, hall_rewrite, min_length_for_codim, standard_factorization
from .liealg import QuotientSpec, SymbolAlgebra, build_symbol_algebra, real_form
from .poly import Poly, PolyVectorField, rigid_chart

__all__ = [
    "ModelSpec",
    "Filtration",
    "NotRigid",
    "NotTotallyNondegenerate",
    "rigid_model",
    "field_model",
    "cr_field",
    "tangential_cr_field",
    "growth_and_nondegeneracy",
    "symbol_from_frame",
    "builtin_catalog",
    "catalog_to_json",
    "load_catalog",
]


class NotRigid(ValueError):
    """The model is given by an explicit field, not by defining polynomials."""


class NotTotallyNondegenerate(ValueError):
    """The model's filtration is not as free as the definition demands."""


@dataclass(frozen=True)
class ModelSpec:
    """A catalog entry: either defining polynomials or an explicit CR field."""

    model_id: str
    codim: int
    length: int
    phis: tuple = ()
    weights: tuple = ()
    cr: PolyVectorField = None
    provenance: str = ""

    @property
    def rigid(self) -> bool:
        return self.cr is None

    def defining_equations(self):
        """Human-readable graph equations w_j - wbar_j = 2i·phi_j."""
        if not self.rigid:
            raise NotRigid(f"model {self.model_id} is given by an explicit field")
        out = []
        for j, phi in enumerate(self.phis, start=1):
            out.append(f"w{j} - w̄{j} = 2i ({phi.pretty(['z', 'z̄'])})")
        return out

    def to_json_dict(self) -> dict:
        out = {
            "id": self.model_id,
            "k": self.codim,
            "rho": self.length,
            "provenance": self.provenance,
        }
        if self.rigid:
            out["defining"] = {
                "type": "rigid",
                "phi": [p.to_json_dict() for p in self.phis],
                "weights": list(self.weights),
            }
        else:
            out["defining"] = {"type": "field", "cr": self.cr.to_json_dict()}
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelSpec":
        d = obj["defining"]
        if d["type"] == "rigid":
            if not isinstance(d["phi"], list):
                raise ValueError("defining.phi: must be a list")
            phis = []
            for j, p in enumerate(d["phi"]):
                try:
                    phis.append(Poly.from_json_dict(p, 2))
                except ValueError as exc:
                    raise ValueError(f"defining.phi[{j}]: {exc}") from exc
            return rigid_model(obj["id"], obj["k"], phis, provenance=obj.get("provenance", ""))
        try:
            cr = PolyVectorField.from_json_dict(d["cr"])
        except ValueError as exc:
            raise ValueError(f"defining.cr: {exc}") from exc
        return field_model(obj["id"], obj["k"], cr, provenance=obj.get("provenance", ""))


def _phi_is_real(phi: Poly) -> bool:
    # real-valued as a polynomial in (z, zbar): equals its formal conjugate
    return phi == phi.permuted((1, 0), conj=True)


def rigid_model(model_id: str, k: int, phis, provenance: str = "") -> ModelSpec:
    """Validated rigid model Im w_j = phi_j(z, zbar).

    Checks: each phi real-valued and weighted-homogeneous (z, zbar of
    weight one), weights nondecreasing, and the top weight equal to the
    minimal length for this codimension.
    """
    phis = tuple(phis)
    if len(phis) != k:
        raise ValueError(f"need {k} defining polynomials, got {len(phis)}")
    weights = []
    for j, phi in enumerate(phis, start=1):
        if phi.nvars != 2:
            raise ValueError("defining polynomials live in (z, zbar)")
        if phi.is_zero():
            raise ValueError(f"phi_{j} is zero")
        if not _phi_is_real(phi):
            raise ValueError(f"phi_{j} is not real-valued")
        degs = sorted({sum(e) for e in phi.terms})
        if len(degs) != 1:
            raise ValueError(f"phi_{j} is not weighted homogeneous")
        weights.append(degs[0])
    if list(weights) != sorted(weights):
        raise ValueError("weights must be nondecreasing")
    rho = min_length_for_codim(k)
    if weights[-1] != rho:
        raise ValueError(f"top weight {weights[-1]} must equal the length {rho}")
    return ModelSpec(model_id, k, rho, phis=phis, weights=tuple(weights), provenance=provenance)


def field_model(model_id: str, k: int, cr: PolyVectorField, provenance: str = "") -> ModelSpec:
    if cr.chart.nvars != 2 + k:
        raise ValueError("explicit field must live on a (2+k)-dimensional chart")
    return ModelSpec(
        model_id, k, min_length_for_codim(k), cr=cr, provenance=provenance
    )


def tangential_cr_field(model: ModelSpec) -> PolyVectorField:
    """Generator of the holomorphic tangent bundle of a rigid model.

    On the intrinsic chart: d/dz + i·sum_j (dphi_j/dz)·d/du_j; the
    conjugate generator is the formal conjugate.  Tangency is checked
    exactly by :func:`_check_tangency`.
    """
    if not model.rigid:
        raise NotRigid(f"model {model.model_id} carries an explicit field")
    k = model.codim
    chart = rigid_chart(k)
    n = chart.nvars
    comps = [Poly.const(n, 1), Poly.zero(n)]
    for phi in model.phis:
        a = phi.diff(0).extend_vars(n).scale(QI(0, 1))
        comps.append(a)
    L = PolyVectorField(chart, comps)
    _check_tangency(model, L)
    return L


def _check_tangency(model: ModelSpec, L: PolyVectorField):
    """L annihilates each wbar_j restricted to M, which is u_j - i·phi_j."""
    n = L.chart.nvars
    for j, phi in enumerate(model.phis):
        wbar = Poly.var(n, 2 + j) - phi.extend_vars(n).scale(QI(0, 1))
        if not L.apply_to(wbar).is_zero():
            raise AssertionError(f"CR field does not annihilate wbar_{j + 1} on the model")


def cr_field(model: ModelSpec) -> PolyVectorField:
    return model.cr if not model.rigid else tangential_cr_field(model)


@dataclass(frozen=True)
class Filtration:
    """Origin values of the bracket filtration: growth vector and spans."""

    growth: tuple
    spans: tuple = field(repr=False, default=())
    word_values: dict = field(repr=False, default=None)


def _word_values(L, Lb, max_length):
    """Origin values {word: [QI]} of the basis bracket words of (L, Lbar).

    The words come in Hall basis order.  Each word shorter than
    ``max_length`` is evaluated as a field on a packed form that never
    becomes a :class:`Poly`: a monomial is one ``int`` whose lowest 2 bits
    hold the power of i and whose bit field j holds the exponent of
    variable j, and a field is a list of ``{monomial: int numerator}``
    components over one ``int`` denominator.  A word of length
    ``max_length`` is only needed at the origin, where its value is
    sum_j U_j(0)·d_jV_i(0) - V_j(0)·d_jU_i(0), read off the constant and
    linear terms of its factors.
    """
    n = L.chart.nvars
    top = max((x for f in (L, Lb) for p in f.comps for e in p.terms for x in e), default=0)
    # a word of length l multiplies l input monomials, so no exponent of
    # a field exceeds top * max_length
    width = max(top * max_length, 1).bit_length()
    shifts = [2 + width * j for j in range(n)]
    fields = {(1,): _packed_field(L, shifts), (2,): _packed_field(Lb, shifts)}
    partials = {}

    def diff(word):
        if word not in partials:
            partials[word] = _partials(fields[word][0], width)
        return partials[word]

    values = {}
    for w in hall_basis(max_length).words:
        if w.length > 1:
            u, v = standard_factorization(w.word)
            if w.length == max_length:
                values[w.word] = _top_value(fields[u], fields[v], shifts)
                continue
            fields[w.word] = _packed_bracket(fields[u], fields[v], diff(u), diff(v))
        comps, den = fields[w.word]
        values[w.word] = [_qi(c.get(0, 0), c.get(1, 0), den) for c in comps]
    return values


def _packed_field(X: PolyVectorField, shifts):
    """X's components as packed numerators over one common denominator."""
    den = lcm(*(d for p in X.comps for c in p.terms.values() for d in (c.re.denominator, c.im.denominator)))
    comps = []
    for p in X.comps:
        comp = {}
        for e, c in p.terms.items():
            mono = sum(x << shifts[j] for j, x in enumerate(e) if x)
            if c.re:
                comp[mono] = c.re.numerator * (den // c.re.denominator)
            if c.im:
                comp[mono | 1] = c.im.numerator * (den // c.im.denominator)
        comps.append(comp)
    return comps, den


def _partials(comps, width):
    """{(i, j): d_j of component i}, the nonzero ones only."""
    mask = (1 << width) - 1
    out = {}
    for i, comp in enumerate(comps):
        for e, x in comp.items():
            rest, s, j = e >> 2, 2, 0
            while rest:
                a = rest & mask
                if a:
                    d = out.setdefault((i, j), {})
                    d[e - (1 << s)] = a * x
                rest >>= width
                s += width
                j += 1
    return out


def _packed_bracket(U, V, dU, dV):
    """[U, V]_i = sum_j U_j·d_jV_i - V_j·d_jU_i, over the product of the denominators."""
    (uc, ud), (vc, vd) = U, V
    out = [{} for _ in uc]
    for (i, j), d in dV.items():
        if uc[j]:
            _mul_into(out[i], uc[j], d, 1)
    for (i, j), d in dU.items():
        if vc[j]:
            _mul_into(out[i], vc[j], d, -1)
    for acc in out:
        # each factor carries i to the power 0 or 1, so i^2 = -1 folds once
        for e in [e for e in acc if e & 2]:
            acc[e - 2] = acc.get(e - 2, 0) - acc.pop(e)
    return [{e: x for e, x in acc.items() if x} for acc in out], ud * vd


def _top_value(U, V, shifts):
    """[U, V] at the origin, from the constant and linear terms of U and V."""
    (uc, ud), (vc, vd) = U, V
    # each factor's nonzero X_j(0), next to the packed monomial x_j
    u0, v0 = ([(1 << s, c.get(0, 0), c.get(1, 0)) for c, s in zip(X, shifts) if 0 in c or 1 in c] for X in (uc, vc))
    den = ud * vd
    out = []
    for i in range(len(uc)):
        re = im = 0
        for sign, origin, lin in ((1, u0, vc[i]), (-1, v0, uc[i])):
            for m, p, q in origin:
                r, t = lin.get(m, 0), lin.get(m | 1, 0)
                re += sign * (p * r - q * t)
                im += sign * (p * t + q * r)
        out.append(_qi(re, im, den))
    return out


def _qi(re: int, im: int, den: int) -> QI:
    return QI(Fraction(re, den), Fraction(im, den)) if re or im else QI_ZERO


def growth_and_nondegeneracy(model: ModelSpec):
    """(Filtration, verdict): verdict is total nondegeneracy at the origin.

    Totally nondegenerate means: each D_l for l below the minimal length
    rho(k) has the full free dimension, and D_rho is the whole complexified
    tangent space.
    """
    k = model.codim
    rho = min_length_for_codim(k)
    L = cr_field(model)
    Lb = L.conj()
    full_dim = 2 + k
    values = _word_values(L, Lb, rho)
    growth = []
    spans = []
    vectors = []
    verdict = True
    for ell in range(1, rho + 1):
        vectors.extend(values[w] for w in values if len(w) == ell)
        ech = Echelon(list(vectors), full_dim)
        growth.append(ech.rank)
        spans.append(ech)
        expected = cumulative_dim(ell) if ell < rho else full_dim
        if ech.rank != expected:
            verdict = False
    filt = Filtration(tuple(growth), tuple(spans), values)
    return filt, verdict


def symbol_from_frame(model: ModelSpec) -> SymbolAlgebra:
    """Model-induced symbol algebra, as a quotient spec fed to the builder.

    The kernel of "evaluate length-rho words at the origin modulo lower
    lengths" is exactly the top-layer subspace the model quotients away.
    The induced constants are cross-checked against the vector-field
    brackets at the origin before returning.
    """
    filt, ok = growth_and_nondegeneracy(model)
    if not ok:
        raise NotTotallyNondegenerate(
            f"model {model.model_id} has growth {filt.growth}, not totally nondegenerate"
        )
    k = model.codim
    rho = min_length_for_codim(k)
    full_dim = 2 + k
    values = filt.word_values
    low_words = [w for w in hall_basis(rho).words if w.length < rho]
    top_words = [w for w in hall_basis(rho).words if w.length == rho]
    n_low, n_top = len(low_words), len(top_words)
    # kernel of [low values | top values]; rows of the quotient are the
    # top-coordinate parts of kernel vectors
    cols = [values[w.word] for w in low_words] + [values[w.word] for w in top_words]
    big = Matrix.from_columns(cols)
    rows = []
    for vec in kernel_basis(big):
        rows.append(tuple(vec[n_low:]))
    reducer = Echelon([list(r) for r in rows], n_top)
    need = n_top - (full_dim - cumulative_dim(rho - 1))
    if reducer.rank != need:
        raise AssertionError("frame quotient has unexpected dimension")
    spec = QuotientSpec(kind="frame", rows=tuple(tuple(r) for r in reducer.rows), provenance=f"frame:{model.model_id}")
    symbol = build_symbol_algebra(k, spec)
    _check_frame_constants(symbol, values, full_dim, filt.spans[rho - 2])
    return symbol


def _check_frame_constants(symbol: SymbolAlgebra, values, full_dim, lower_span):
    """Origin values must satisfy the quotient's structure constants.

    Top-degree brackets live in D_rho / D_(rho-1) at the origin, so the
    two evaluations are compared modulo the lower filtration span.
    """
    for i, wi in enumerate(symbol.words):
        for j in range(i + 1, symbol.dim):
            wj = symbol.words[j]
            if wi.length + wj.length != symbol.length:
                continue
            lhs = [QI_ZERO] * full_dim
            raw = hall_rewrite(wi, wj)
            for w, c in raw.items():
                val = values[w.word]
                lhs = [x + as_qi(c) * v for x, v in zip(lhs, val)]
            rhs = [QI_ZERO] * full_dim
            for kdx, c in symbol.algebra.bracket_basis(i, j).items():
                val = values[symbol.words[kdx].word]
                rhs = [x + c * v for x, v in zip(rhs, val)]
            diff = [x - y for x, y in zip(lhs, rhs)]
            if not lower_span.contains(diff):
                raise AssertionError(f"frame constants disagree at ({wi}, {wj})")


def _phi(terms) -> Poly:
    return Poly(2, terms)


def _frame_realized_model(model_id: str, k: int) -> ModelSpec:
    """Explicit-field entry: CR field of the default symbol algebra's group.

    The left-invariant frame realizes the realified default symbol algebra
    on its simply connected group in exponential coordinates; the CR field
    is (X - iY)/2 for the canonical degree -1 pair (x, y).
    """
    rf = real_form(build_symbol_algebra(k).algebra)
    frame = left_invariant_frame(rf.algebra)
    L = (frame[0] + frame[1].scale(QI(0, -1))).scale(QI("1/2"))
    return field_model(
        model_id,
        k,
        L,
        provenance="left-invariant frame of the default symbol algebra (no rigid "
        "polynomial representative is available at this length)",
    )


def builtin_catalog() -> dict:
    """The shipped desk-scale models, keyed by id.

    Rigid entries carry their defining polynomials phi_j; the two length-5
    entries are explicit-field realizations.  Every entry passes
    growth_and_nondegeneracy (enforced by the catalog test suite).

    The entries are built once per process, on first use, and shared:
    they are immutable.  Each call returns a new dict, so a caller may
    add, drop or replace entries without affecting the next call.
    """
    return dict(_builtin_models())


@functools.cache
def _builtin_models() -> dict:
    catalog = {}

    def add(m):
        catalog[m.model_id] = m

    # length 2: Im w = z·zbar
    add(rigid_model("heisenberg", 1, [_phi({(1, 1): 1})], provenance="w - wbar = 2i z zbar"))
    # length 3 entries: Im w2 = z^2 zbar + z zbar^2 (and its partner for k=3)
    cubic_a = _phi({(2, 1): 1, (1, 2): 1})
    cubic_b = _phi({(2, 1): QI(0, -1), (1, 2): QI(0, 1)})
    add(rigid_model("cubic2", 2, [_phi({(1, 1): 1}), cubic_a], provenance="derived; validated by the growth check"))
    add(rigid_model("cubic3", 3, [_phi({(1, 1): 1}), cubic_a, cubic_b], provenance="derived; validated by the growth check"))
    # length 4 entries
    quartic_a = _phi({(3, 1): 1, (1, 3): 1})
    quartic_b = _phi({(3, 1): QI(0, -1), (1, 3): QI(0, 1)})
    quartic_c = _phi({(2, 2): 1})
    add(
        rigid_model(
            "quartic4",
            4,
            [_phi({(1, 1): 1}), cubic_a, cubic_b, quartic_c],
            provenance="derived; validated by the growth check",
        )
    )
    add(
        rigid_model(
            "quartic5",
            5,
            [_phi({(1, 1): 1}), cubic_a, cubic_b, quartic_a, quartic_b],
            provenance="derived; validated by the growth check",
        )
    )
    add(
        rigid_model(
            "quartic6",
            6,
            [_phi({(1, 1): 1}), cubic_a, cubic_b, quartic_a, quartic_b, quartic_c],
            provenance="derived; validated by the growth check",
        )
    )
    # length 5 entries via the explicit-field escape hatch
    add(_frame_realized_model("quintic7", 7))
    add(_frame_realized_model("quintic12", 12))
    return catalog


def catalog_to_json(catalog: dict) -> str:
    entries = [catalog[key].to_json_dict() for key in sorted(catalog)]
    return json.dumps(entries, indent=2)


_PAYLOAD = {"rigid": "phi", "field": "cr"}


def load_catalog(text: str) -> dict:
    """Models from catalog JSON: a list of :meth:`ModelSpec.to_json_dict` objects.

    A malformed entry raises ValueError naming its field path, such as
    ``catalog[0]: missing 'defining'``.
    """
    entries = json.loads(text)
    if not isinstance(entries, list):
        raise ValueError("catalog: top level must be a list of models")
    out = {}
    for n, obj in enumerate(entries):
        where = f"catalog[{n}]"
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: must be an object")
        for key in ("id", "k", "defining"):
            if key not in obj:
                raise ValueError(f"{where}: missing {key!r}")
        if not isinstance(obj["id"], str) or obj["id"] in out:
            raise ValueError(f"{where}.id: must be a string not used by an earlier entry")
        k, d = obj["k"], obj["defining"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"{where}.k: must be a positive integer, got {k!r}")
        if not isinstance(obj.get("provenance", ""), str):
            raise ValueError(f"{where}.provenance: must be a string, got {obj['provenance']!r}")
        if not isinstance(d, dict) or d.get("type") not in _PAYLOAD:
            raise ValueError(f"{where}.defining.type: must be one of {sorted(_PAYLOAD)}")
        if _PAYLOAD[d["type"]] not in d:
            raise ValueError(f"{where}.defining: missing {_PAYLOAD[d['type']]!r}")
        try:
            m = ModelSpec.from_json_dict(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
        out[m.model_id] = m
    return out
