"""Polynomial realizations of the CR models.

A rigid model is the graph w_j - wbar_j = 2i·phi_j(z, zbar) with real
weighted-homogeneous defining polynomials; its tangential CR field on the
intrinsic chart (z, zbar, u_1..u_k) is d/dz + i·sum_j (dphi_j/dz) d/du_j,
built and checked once, when the model is made.  Models may instead be
given by an explicit CR field (used for lengths that have no rigid
polynomial representative).  Every model holds its field and its chart
weights, and the growth and symbol machinery only ever consumes the field.

The growth vector is computed by evaluating the basis bracket words of
the field and its conjugate at the origin; total nondegeneracy means the
filtration is as free as possible below the minimal length and fills the
tangent space exactly there.  The word values are exact and computed
fraction-free: every word is bracketed in the packed form of
:mod:`crprolong.poly`, with integer numerators over one denominator per
word, and its origin value,
the constant terms, stays in Gaussian integers up to the reduced echelon
form (on a weighted-homogeneous field every word of the minimal length is
a constant field).  A model's filtration is evaluated once, on first use,
and kept on the model (``ModelSpec.filtration``): the growth vector, the
verdict, the quotient and the check of its constants are all read off its
one reduced echelon form.
When the verdict holds, the length-rho evaluation kernel is the
model-induced top-layer quotient and the symbol algebra is rebuilt from
it through the same constructor as every other quotient.
"""

from __future__ import annotations

import functools
import json

from .bch import left_invariant_frame
from .exact import QI, QI_ZERO, _entries, _gaussian_apply, _gaussian_axpy, _gaussian_reduce, _over_one_denominator, _qi_view
from .exact import _relabel, _sum_forms, _term, _transpose
from .freelie import _bracket_basis, cumulative_dim, hall_basis, min_length_for_codim, standard_factorization
from .liealg import QuotientSpec, SymbolAlgebra, build_symbol_algebra, real_form
from .poly import Poly, PolyVectorField, _bracket, _conjugate, _constant_terms, _decode, _pack, _partials, _width, rigid_chart

__all__ = [
    "ModelSpec",
    "Filtration",
    "NotRigid",
    "NotTotallyNondegenerate",
    "rigid_model",
    "field_model",
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


class ModelSpec:
    """A catalog entry, given by defining polynomials or by an explicit CR field.

    ``cr`` is the model's CR field, which a rigid model builds from its
    defining polynomials.  ``weights`` are the chart weights, one per
    coordinate: (1, 1, w_1..w_k) for a rigid model, w_j the weight of
    phi_j, and those ``field_model`` infers for a field model.

    No reader may change a model, whose filtration is kept once read, and a
    model is not hashable: its polynomials are not.
    """

    def __init__(
        self, model_id: str, codim: int, length: int, phis: tuple = (), weights: tuple = (),
        cr: PolyVectorField = None, provenance: str = "",
    ):
        self.model_id = model_id
        self.codim = codim
        self.length = length
        self.phis = phis
        self.weights = weights
        self.cr = cr
        self.provenance = provenance

    def __eq__(self, other):
        if not isinstance(other, ModelSpec):
            return NotImplemented
        return (self.model_id, self.codim, self.length, self.phis, self.weights, self.cr, self.provenance) == (
            other.model_id, other.codim, other.length, other.phis, other.weights, other.cr, other.provenance
        )

    @functools.cached_property
    def filtration(self) -> "Filtration":
        """The bracket filtration of (L, Lbar) at the origin, evaluated on first read and kept.

        One reduced echelon form of the word values (rows the 2 + k
        coordinates, columns the Hall words in Hall order, which is sorted
        by length) gives every D_l: its pivots are the first basis among
        the columns, taken in order, so dim D_l is the number of pivot
        words of length at most l.  Each word's values come over its own
        denominator and are scaled to their lcm, which leaves the reduced
        form unchanged.  A copy built with the constructor evaluates afresh.
        """
        rho = min_length_for_codim(self.codim)
        values = _word_values(self.cr, rho)
        vecs, dens = zip(*values.values())
        # word c's numerators times s_c = lcm / den_c
        scales, _ = _over_one_denominator([(1, d) for d in dens])
        rows = _transpose({c: {t: s * x for t, x in vec.items()} for c, (s, vec) in enumerate(zip(scales, vecs))}, 2 + self.codim)
        reduced = tuple(_gaussian_reduce(rows, len(vecs))[0])
        words = tuple(values)
        growth = tuple(sum(1 for c, _ in reduced if len(words[c]) <= ell) for ell in range(1, rho + 1))
        return Filtration(growth, reduced, words)

    @property
    def rigid(self) -> bool:
        return bool(self.phis)

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
                "weights": list(self.weights[2:]),
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
            m = rigid_model(obj["id"], obj["k"], phis, provenance=obj.get("provenance", ""))
            if "weights" in d and d["weights"] != list(m.weights[2:]):
                raise ValueError(f"defining.weights: stated {d['weights']!r}, but the polynomials have weights {list(m.weights[2:])}")
        else:
            try:
                m = field_model(obj["id"], obj["k"], PolyVectorField.from_json_dict(d["cr"]), obj.get("provenance", ""))
            except ValueError as exc:
                raise ValueError(f"defining.cr: {exc}") from exc
        if "rho" in obj and obj["rho"] != m.length:
            raise ValueError(f"rho: stated {obj['rho']!r}, but k = {m.codim} has length {m.length}")
        return m


def _phi_is_real(phi: Poly) -> bool:
    # real-valued as a polynomial in (z, zbar): equals its formal conjugate
    return phi == phi.permuted((1, 0), conj=True)


def rigid_model(model_id: str, k: int, phis, provenance: str = "") -> ModelSpec:
    """Validated rigid model Im w_j = phi_j(z, zbar), with its CR field.

    Checks: each phi real-valued and weighted-homogeneous (z, zbar of
    weight one), weights nondecreasing, and the top weight equal to the
    minimal length for this codimension.  The field is built and its
    tangency checked once, here.
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
    return ModelSpec(model_id, k, rho, phis=phis, weights=(1, 1, *weights), cr=_tangential_field(k, phis), provenance=provenance)


def field_model(model_id: str, k: int, cr: PolyVectorField, provenance: str = "") -> ModelSpec:
    """Explicit-field model: the CR field ``cr`` on a (2 + k)-dimensional chart.

    In a weighted-homogeneous field of length rho every variable has
    weight at least 1, so no exponent passes rho - 1; a larger one is
    refused here, before any bracket is taken.  Then the weights are read
    in chart order and the field is refused unless it is weighted
    homogeneous: the first two coordinates have weight 1 and constant
    components, and each later component is nonzero, reads only earlier
    coordinates, and has one weighted degree, its coordinate's weight - 1.
    The model keeps those chart weights.
    """
    if cr.chart.nvars != 2 + k:
        raise ValueError("explicit field must live on a (2+k)-dimensional chart")
    rho = min_length_for_codim(k)
    for i, comp in enumerate(cr.comps):
        for e in comp.terms:
            if (top := max(e, default=0)) > rho - 1:
                var = cr.chart.names[e.index(top)]
                raise ValueError(
                    f"components[{i}]: exponent {top} of {var} exceeds {rho - 1}, the bound for length {rho}"
                )
    weights = []
    for j, comp in enumerate(cr.comps):
        # None stands for a term that reads coordinate j or a later one
        degrees = {None if any(e[j:]) else sum(x * w for x, w in zip(e, weights)) for e in comp.terms}
        if j < 2 and degrees <= {0}:
            weights.append(1)
        elif j >= 2 and len(degrees) == 1 and None not in degrees:
            weights.append(degrees.pop() + 1)
        else:
            rule = "be constant" if j < 2 else "be a nonzero polynomial in the earlier coordinates, of one weighted degree"
            raise ValueError(f"components[{j}]: the field is not weighted homogeneous: the component of {cr.chart.names[j]} must {rule}")
    return ModelSpec(model_id, k, rho, weights=tuple(weights), cr=cr, provenance=provenance)


def _tangential_field(k: int, phis) -> PolyVectorField:
    """Generator of the holomorphic tangent bundle of the rigid model Im w_j = phi_j.

    On the intrinsic chart: d/dz + i·sum_j (dphi_j/dz)·d/du_j; the
    conjugate generator is the formal conjugate.  The i·phi_j are packed
    once on the chart, L's u-components are read off their partials, and
    tangency is checked exactly on that form by :func:`_check_tangency`.
    """
    chart = rigid_chart(k)
    n = chart.nvars
    # the check multiplies each partial of an i·phi_j by a constant or by z
    # or zbar, which restores the exponent the partial lowered, so no
    # exponent passes those of the phi_j
    width = _width(phis, 1)
    iphi = _pack([phi.scale(QI(0, 1)) for phi in phis], n, width)
    partials = _partials(iphi[0], n, width)
    us = [_decode(partials.get((j, 0), {}), iphi[1], n, width) for j in range(k)]
    L = PolyVectorField(chart, [Poly.const(n, 1), Poly.zero(n), *us])
    _check_tangency(L, iphi, partials, [max(map(sum, phi.terms), default=0) for phi in phis], width)
    return L


def _check_tangency(L: PolyVectorField, iphi, partials: dict, degrees, width: int):
    """L annihilates each wbar_j restricted to M, u_j - i·phi_j: its u_j-component is L(i·phi_j).

    ``iphi`` is the packed form of the i·phi_j and ``partials`` are its
    ``_partials``, from which L's u-components were read, so the partials
    are checked on their own too: the homogeneous phi_j of degree
    ``degrees[j]`` satisfies Euler's identity (z·d_z + zbar·d_zbar) phi_j =
    degrees[j]·phi_j, which a wrong factor or a wrong variable breaks.  L
    and the Euler field are each packed once and applied to all the
    i·phi_j in one bracket each, with no partials of either.
    """
    n = L.chart.nvars
    comps, _ = packed = _pack(L.comps, n, width)
    euler = _pack([Poly.var(n, 0), Poly.var(n, 1), *[Poly.zero(n)] * (n - 2)], n, width)
    applied, _ = _bracket(packed, iphi, {}, partials, n, width)
    scaled, _ = _bracket(euler, iphi, {}, partials, n, width)
    for j, (value, homogeneous, deg) in enumerate(zip(applied, scaled, degrees)):
        # each side is over the denominator of the field applied times that of iphi
        if value != {e: x * iphi[1] for e, x in comps[2 + j].items()} or homogeneous != {e: deg * euler[1] * x for e, x in iphi[0][j].items()}:
            raise AssertionError(f"CR field does not annihilate wbar_{j + 1} on the model")


class Filtration:
    """Origin values of the bracket filtration: growth vector and reduced form.

    ``reduced`` is the reduced row echelon form of the word values,
    ``_gaussian_reduce``'s pivots: one ``(col, {col: re, ~col: im})`` per
    pivot word, where ``col`` indexes ``words``, the Hall words up to the
    length in Hall order, and the row, over its positive pivot entry
    ``row[col]``, is 1 at its pivot and 0 at every other pivot.  A model
    shares its filtration, so no reader may change it.
    """

    def __init__(self, growth: tuple, reduced: tuple = (), words: tuple = ()):
        self.growth = growth
        self.reduced = reduced
        self.words = words

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        return (self.growth, self.reduced, self.words) == (other.growth, other.reduced, other.words)


def _word_values(L, max_length):
    """Origin values {word: ({t: re, ~t: im}, den)} of the basis bracket words of (L, Lbar).

    The words come in Hall basis order, each value as packed Gaussian
    integer numerators by coordinate t, over that word's positive denominator.
    Each word is evaluated as a field in the packed form of
    :mod:`crprolong.poly` and never becomes a :class:`Poly`.  A word of
    length at least 2 is the packed bracket of its two factors, and its
    origin value is its constant terms.  Lbar = ``L.conj()`` is the packed
    conjugate of L's packed form.
    """
    n = L.chart.nvars
    # a word of length l is a sum of products of l monomials of L and Lbar,
    # whose exponents are L's, permuted
    width = _width(L.comps, max_length)
    packed = _pack(L.comps, n, width)
    fields = {(1,): packed, (2,): _conjugate(packed, L.chart.conj_perm, width)}
    partials, values = {}, {}
    for w in hall_basis(max_length).words:
        if w.length > 1:
            u, v = standard_factorization(w.word)
            fields[w.word] = _bracket(fields[u], fields[v], partials[u], partials[v], n, width)
        if w.length < max_length:  # a factor of a longer word: of [1, w], or of [1, 2] for w = 1
            partials[w.word] = _partials(fields[w.word][0], n, width)
        values[w.word] = _constant_terms(fields[w.word], n, width)
    return values


def growth_and_nondegeneracy(model: ModelSpec):
    """(``model.filtration``, verdict): verdict is total nondegeneracy at the origin.

    Totally nondegenerate means: each D_l for l below the minimal length
    rho(k) has the full free dimension, and D_rho is the whole complexified
    tangent space.  The filtration is the model's own, evaluated on its
    first use.
    """
    k = model.codim
    free = tuple(cumulative_dim(ell) for ell in range(1, min_length_for_codim(k))) + (2 + k,)
    return model.filtration, model.filtration.growth == free


def symbol_from_frame(model: ModelSpec) -> SymbolAlgebra:
    """Model-induced symbol algebra, as a quotient spec fed to the builder.

    The model's filtration (``growth_and_nondegeneracy``) is not evaluated
    again.  The top words whose values vanish modulo D_(rho-1) at the
    origin span exactly the top-layer subspace the model quotients away.
    Under total nondegeneracy every lower word is a pivot of
    ``filt.reduced``, so each free top word f gives one such combination,
    e_f minus its column of the top pivot rows, in Gaussian integers;
    their reduced echelon form on the word columns as they are
    (``_gaussian_reduce``) is the quotient, each row over its pivot entry,
    whose entries become ``QI`` once.  The induced constants are cross-checked
    against the vector-field brackets at the origin before returning.
    """
    filt, ok = growth_and_nondegeneracy(model)
    if not ok:
        raise NotTotallyNondegenerate(
            f"model {model.model_id} has growth {filt.growth}, not totally nondegenerate"
        )
    k = model.codim
    n_low = cumulative_dim(min_length_for_codim(k) - 1)
    top_cols = range(n_low, len(filt.words))
    top = [(c, row) for c, row in filt.reduced if c >= n_low]
    free = sorted(set(top_cols) - {c for c, _ in top})
    # e_f minus column f of the top pivot rows, at their pivots; the scale of a row is free, so its numerators will do
    terms = {f: [(0, 1, 1, {f: 1})] for f in free}
    for c, row in top:
        for f, turn, x in _entries(row):
            if f in terms:
                terms[f].append(_term(0, turn, -x, row[c], {c: 1}))
    vecs = [_sum_forms(terms[f])[0][0] for f in free]
    views = (_qi_view(row, row[c]) for c, row in _gaussian_reduce(vecs, len(filt.words))[0])
    rows = tuple(tuple(view.get(c, QI_ZERO) for c in top_cols) for view in views)
    spec = QuotientSpec(kind="frame", rows=rows, provenance=f"frame:{model.model_id}")
    symbol = build_symbol_algebra(k, spec)
    _check_frame_constants(symbol, filt)
    return symbol


def _check_frame_constants(symbol: SymbolAlgebra, filt: Filtration):
    """Origin values must satisfy the quotient's structure constants.

    Top-degree brackets live in D_rho / D_(rho-1) at the origin, so the
    two evaluations are compared modulo the lower filtration span: a
    combination of top words has its value there iff every top pivot row
    of ``filt.reduced`` vanishes on it.  Each difference is taken times
    the table's denominator, in Gaussian integers.
    """
    col = {w: c for c, w in enumerate(filt.words)}
    n_low = cumulative_dim(symbol.length - 1)
    # the top pivot rows by column: {word column: {pivot row: re, ~pivot row: im}}
    top = dict(enumerate(_transpose({p: row for p, (c, row) in enumerate(filt.reduced) if c >= n_low}, len(filt.words))))
    nums, den = symbol.algebra._numerators
    word_cols = [col[w.word] for w in symbol.words]
    for i, wi in enumerate(symbol.words):
        for j in range(i + 1, symbol.dim):
            wj = symbol.words[j]
            if wi.length + wj.length != symbol.length:
                continue
            # a Hall word's standard bracketing is its own normal form
            diff = {col[w]: -c * den for w, c in _bracket_basis(wi.word, wj.word)}
            _gaussian_axpy(diff, 1, _relabel(nums.get((i, j), {}), word_cols))
            if any(_gaussian_apply(top, diff).values()):
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
    derived = "derived; validated by the growth check"
    levi = _phi({(1, 1): 1})
    # length 3 entries: Im w2 = z^2 zbar + z zbar^2 (and its partner for k=3)
    cubic_a = _phi({(2, 1): 1, (1, 2): 1})
    cubic_b = _phi({(2, 1): QI(0, -1), (1, 2): QI(0, 1)})
    # length 4 entries
    quartic_a = _phi({(3, 1): 1, (1, 3): 1})
    quartic_b = _phi({(3, 1): QI(0, -1), (1, 3): QI(0, 1)})
    quartic_c = _phi({(2, 2): 1})
    models = [
        # length 2: Im w = z·zbar
        rigid_model("heisenberg", 1, [levi], provenance="w - wbar = 2i z zbar"),
        rigid_model("cubic2", 2, [levi, cubic_a], provenance=derived),
        rigid_model("cubic3", 3, [levi, cubic_a, cubic_b], provenance=derived),
        rigid_model("quartic4", 4, [levi, cubic_a, cubic_b, quartic_c], provenance=derived),
        rigid_model("quartic5", 5, [levi, cubic_a, cubic_b, quartic_a, quartic_b], provenance=derived),
        rigid_model("quartic6", 6, [levi, cubic_a, cubic_b, quartic_a, quartic_b, quartic_c], provenance=derived),
        # length 5 entries via the explicit-field escape hatch
        _frame_realized_model("quintic7", 7),
        _frame_realized_model("quintic12", 12),
    ]
    return {m.model_id: m for m in models}


def catalog_to_json(catalog: dict) -> str:
    entries = [catalog[key].to_json_dict() for key in sorted(catalog)]
    return json.dumps(entries, indent=2)


_PAYLOAD = {"rigid": "phi", "field": "cr"}


def load_catalog(text: str) -> dict:
    """Models from catalog JSON: a list of :meth:`ModelSpec.to_json_dict` objects.

    A malformed entry raises ValueError naming its field path, such as
    ``catalog[0]: missing 'defining'``.
    """
    try:
        entries = json.loads(text)
    except RecursionError:  # the JSON parser's own limit; engine recursion is not caught here
        raise ValueError("catalog: JSON nested too deeply to parse") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"catalog: {exc}") from None
    if not isinstance(entries, list) or not entries:
        raise ValueError("catalog: top level must be a list of at least one model")
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
        if not isinstance(d, dict) or not isinstance(d.get("type"), str) or d["type"] not in _PAYLOAD:
            raise ValueError(f"{where}.defining.type: must be one of {sorted(_PAYLOAD)}")
        if _PAYLOAD[d["type"]] not in d:
            raise ValueError(f"{where}.defining: missing {_PAYLOAD[d['type']]!r}")
        try:
            m = ModelSpec.from_json_dict(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
        out[m.model_id] = m
    return out
