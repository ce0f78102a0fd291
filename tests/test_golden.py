"""Golden digests: the same inputs give byte-identical JSON.

Each digest is the sha256 of the canonical JSON (sorted keys, no spaces)
of one computed object: the symbol algebra, its Levi-Tanaka prolongation
and the ``verify_theorem`` report for the default quotients k = 2..8, 13
(length 6), 21 (length 6) and 22 (length 7), the catalog model ``quintic7`` and three
explicit quotients (a seeded conjugation-stable one at k = 8, a seeded
rotation-stable one at k = 8 and the mixed-bidegree k = 5 line
(1, 1, 1), which is ``real-alpha``), the symbol of the k = 2 quotient by
its trailing Hall word, which has no conjugation, plus the full Tanaka
tower of the
Heisenberg algebra through degree 3 and two assembled prolongations whose
nonnegative components bracket nontrivially: Levi-Tanaka of k = 1 (up to
G^2) and full Tanaka of k = 3 (G2, up to G^3), and the real forms (algebra
and embedding) of the default symbols k = 21, 69 and 125 and the
conjugation-adapted top basis at length 12, the last two in ``slow``.  A
change to any basis, bracket, component ordering or report field shows
up here.  Update a digest only for an intended change of output, and say
so in CHANGES.md.
"""

import hashlib
import json

import pytest

from quotients import random_quotient, rotation_stable_quotient

from crprolong.crmodels import verify_theorem
from crprolong.exact import QI
from crprolong.frames import builtin_catalog, symbol_from_frame
from crprolong.liealg import QuotientSpec, build_symbol_algebra, conjugation_adapted_top_basis, real_form, realify
from crprolong.prolong import FULL_TANAKA, LEVI_TANAKA, full_prolongation, grade0, prolong_component

THEOREM_GOLDEN = {
    "k2": {
        "symbol": "1eff877721d0b4063bff4e7ad699dc43da816cc4dda306e2af049d605ffe872c",
        "prolongation": "d1d2ae95c15434a7b8a1679bd5c3a57c1f6e0106dbc13f69665c07c2f65e54c8",
        "report": "d8d0777f5a34bb2e3b33e65c270f1694663792fb6814c44109a2df6e18f88843",
    },
    "k3": {
        "symbol": "a4e29776c1662fd487182854b4118dd9fed7f46ab982d20ddfc5a58846d80790",
        "prolongation": "259438f6ae13602073f52f9171770c3aaa5a7fcc4ad913362178c9bad67dc449",
        "report": "5a48ee73ffecc63d5af9bd189af9024480ba1fe664c0732b33ef55c820309ef4",
    },
    "k4": {
        "symbol": "0009dc558e4d7868ad427894e78c5cb8a92b574008e0d55af5bd3324e4fb2d51",
        "prolongation": "9729242c782b4c1eb6933dbd118814d7bde2d7208330c7adfe8c6bee70dbb094",
        "report": "b35c42f88d45742f6104def17dbed6f338fb52ad10377de9527129f5786ed789",
    },
    "k5": {
        "symbol": "c1520b606300d2d8a19433e03d1cf18de05543e23a26c52c4b7edd688406fa38",
        "prolongation": "e68183dc8b350c7609d98ffd9e28c7777530f601a4942b701b37276d75ed71a0",
        "report": "a63ad9b6c4c7c1a213dd0081633ea8ec99051420cad89821252daf669130cdaf",
    },
    "k6": {
        "symbol": "d50497d5d7316a7c01036e3a3c85e32c30648e0b0ff26e04c82db0c2f4ad46cc",
        "prolongation": "7e5af7a600c83a0adb4b13f69837e7dcc49d8516b22c88e86eb6e8d94f198fb7",
        "report": "46c88015d5e895efa06c827544491ee8074f06c38f03950e1c7518ed12aac73f",
    },
    "k7": {
        "symbol": "ba05d82427289df3ef5722c53fca9a42ac9bfb06bec6367c310cf77eb431d3f9",
        "prolongation": "9f6953f005e7d6e098d8abe27628adeb8faf37f1ac73340a3f96b232f47e399b",
        "report": "2e3bf1852cab02b72f5a238d987790b7182d79d19e5ce822b42d2291dfa9dfeb",
    },
    "k8": {
        "symbol": "7930935a4df4bb5640da75c379181df1f66b2690efb77363b320524f64d0b142",
        "prolongation": "cab08dd1c8936e00c360934524e4b00cab67f3b2e2efd0e4a3dbff693f6afdb0",
        "report": "acdd86c0ad81f7487e8b7a17d4c770d8c68a76453324f9d2f68abc50725f5ae8",
    },
    "k13": {
        "symbol": "7ab11a750e86c4a52a142a9e4a381c349b21ed4ab819ce365fded207f1b94c68",
        "prolongation": "3065953b54c658aabb31fa1e64e1babfe2ffe0edfbfdc887aa2bb3bc2ea12113",
        "report": "46b4723bff9ffaac7d7d6c145a698458b756970c9d5d3bb1be3cd8742dd2e3f5",
    },
    "k21": {
        "symbol": "1469a145419efe372e6b2fefb782529286e74df54a0f5078872821c1a62f8651",
        "prolongation": "cba0997ee168dff11a198c2926d4e7d3f81c765e854cb35bbf05d1398989bd03",
        "report": "ec340faca9d2c8c92a9de2dce1483b4751a8727cbaf425b51aac0f1a65c7e7b8",
    },
    "k22": {
        "symbol": "7f6c6e5822865355259d951fcd2e3d29acc19e8f35135623c9e1424689266bf5",
        "prolongation": "c0c1ac0b6db996d3d46c57d37945c2f6f3173efd4142b7c44b038416fa4fd3cb",
        "report": "881f60ca41337a01032bce8682f65840f86b704800c3c6a50adb67a48db92528",
    },
    "quintic7": {
        "symbol": "62b1327b3ec43492c2b5f7967781f7c1aa14bfbb4e326627c38b6ee129e2c2f6",
        "prolongation": "9f6953f005e7d6e098d8abe27628adeb8faf37f1ac73340a3f96b232f47e399b",
        "report": "55f43292334f1bc0e04fec7e1915c8319ec1b43d8bcc9a06d7c25f1933e2d8e1",
    },
}

EXPLICIT_QUOTIENTS = {
    "random-k8-s1": (8, lambda: random_quotient(8, 1)),
    "rotation-k8-s1": (8, lambda: rotation_stable_quotient(8, 1)),
    "line-k5-111": (5, lambda: QuotientSpec(kind="explicit", rows=((QI(1), QI(1), QI(1)),))),
}

EXPLICIT_GOLDEN = {
    "random-k8-s1": {
        "symbol": "c4b14f316d55842690c26cca1fa5ebb3dffcf0bcb1a540332a8ef56aa2bd4c09",
        "prolongation": "fbb1331cc7373244daeebd0a1beccac4f45583c96c7622de53e0453299dd7a3f",
        "report": "5fda79d76d0418a5497c5b4853409b1fa5bb7d146c4cdcefa4004111eddf8c05",
    },
    "rotation-k8-s1": {
        "symbol": "2b5ddb22b664e8418cac4e4d89a6775151ca66da14f49da8792079ad56ebf2d0",
        "prolongation": "e23dfede351472655b8b56b9616767bf82965dd1abb8ffa599b793ff8909514c",
        "report": "3cdae863ee1a9dd76176b80c093052fe998c6cd82efc74602ef34652401dce72",
    },
    "line-k5-111": {
        "symbol": "55c7fc47f08e4f1a64a83e6277b9fe0a95e042c60be5bbbddb2f81da2ce924e5",
        "prolongation": "a6f55d5f043c7b80ff27536433b5cf6328815361a244da00f9c1476b373d82be",
        "report": "84833b4af9a8440e795d55c7c28e6a2e583c51a982103ce4cbba76f002b56677",
    },
}

TRAILING_K2_SYMBOL_GOLDEN = "47faa463cfe19c4cef248743b380a92b3c8632c48f7c44f013ffef336bac41bc"

HEISENBERG_TOWER_GOLDEN = "5bee2e33d234c4e879b7e8e28a85b2de2cbe3730835b04c87bc056fe8412f416"

ASSEMBLED_GOLDEN = {
    (1, LEVI_TANAKA): "ba694b9eabb44298934aa3cdebbd10f91118b86d249545342bf595773bde2ac9",
    (3, FULL_TANAKA): "ad1fd12df9d8659764766479499214458bb2abe36a862e03e5e095a2e9ce6fb4",
}

REAL_FORM_GOLDEN = {
    21: "f62c20bcbb733c06e5bb83fefef7eccf3678d548d8c0ef74716de726131c0846",
    69: "ac9f7f56bf13d8d4879fe8db36bdf511d60b0996def3a4a22bb70a01e85f5073",
    125: "18c878d9f2ab2eb29d26ba62996665b5fa070afe765f34f62eebdba5fb904238",
}

TOP_BASIS_12_GOLDEN = "735784de887eece712847d85ca6051e4bf101dca4d8829599ac5d5a008ddd738"


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _symbol(name):
    if name in EXPLICIT_QUOTIENTS:
        k, quotient = EXPLICIT_QUOTIENTS[name]
        return build_symbol_algebra(k, quotient())
    if name.startswith("k"):
        return build_symbol_algebra(int(name[1:]))
    return symbol_from_frame(builtin_catalog()[name])


def theorem_digests(name) -> dict:
    symbol = _symbol(name)
    prolonged = full_prolongation(real_form(symbol.algebra).algebra, LEVI_TANAKA)
    return {
        "symbol": _digest(symbol.to_json_dict()),
        "prolongation": _digest(prolonged.to_json_dict()),
        "report": _digest(verify_theorem(symbol).to_json_dict()),
    }


def heisenberg_tower_digest() -> str:
    m = realify(build_symbol_algebra(1).algebra)
    comps = [grade0(m, j_constraint=False)]
    for l in range(1, 4):
        comps.append(prolong_component(m, comps, l))
    degrees = sorted(set(m.degrees))
    return _digest([[[str(x) for x in dm.flatten(degrees)] for dm in c.maps] for c in comps])


@pytest.mark.parametrize("name", sorted(THEOREM_GOLDEN))
def test_theorem_outputs_match_golden(name):
    assert theorem_digests(name) == THEOREM_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(EXPLICIT_GOLDEN))
def test_explicit_quotient_outputs_match_golden(name):
    assert theorem_digests(name) == EXPLICIT_GOLDEN[name]


def test_trailing_k2_symbol_matches_golden():
    symbol = build_symbol_algebra(2, QuotientSpec(kind="explicit", rows=((QI(0), QI(1)),)))
    assert symbol.algebra.conjugation is None
    assert _digest(symbol.to_json_dict()) == TRAILING_K2_SYMBOL_GOLDEN


def test_heisenberg_full_tanaka_tower_matches_golden():
    assert heisenberg_tower_digest() == HEISENBERG_TOWER_GOLDEN


@pytest.mark.parametrize("k, flavor", sorted(ASSEMBLED_GOLDEN))
def test_assembled_prolongation_matches_golden(k, flavor):
    prolonged = full_prolongation(realify(build_symbol_algebra(k).algebra), flavor)
    assert _digest(prolonged.to_json_dict()) == ASSEMBLED_GOLDEN[k, flavor]


@pytest.mark.parametrize("k", [21, 69, pytest.param(125, marks=pytest.mark.slow)])
def test_real_form_matches_golden(k):
    rf = real_form(build_symbol_algebra(k).algebra)
    embedding = [[[a, str(x)] for a, x in rf.embedding.sparse_column(c).items()] for c in range(rf.embedding.cols)]
    assert _digest({"algebra": rf.algebra.to_json_dict(), "embedding": embedding}) == REAL_FORM_GOLDEN[k]


@pytest.mark.slow
def test_conjugation_adapted_top_basis_at_length_12_matches_golden():
    basis = conjugation_adapted_top_basis(12)
    assert _digest([[[str(x) for x in v], tag] for v, tag in basis]) == TOP_BASIS_12_GOLDEN
