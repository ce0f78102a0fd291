import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crprolong
from crprolong.cli import main
from crprolong.liealg import GradedLieAlgebra


SRC = Path(crprolong.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witt_table_rows(capsys):
    code, out, _ = run(capsys, "witt", "--max-length", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split() == ["1", "2", "2", "-"]
    assert lines[2].split() == ["2", "1", "3", "k=1"]
    assert lines[4].split() == ["4", "3", "8", "k=4..6"]


def test_witt_json(capsys):
    code, out, _ = run(capsys, "witt", "--max-length", "2", "--format", "json")
    rows = json.loads(out)
    assert rows[1] == {"length": 2, "dim": 1, "cumulative": 3, "codims_with_this_length": "k=1"}


def test_symbol_k1_json_round_trip(capsys):
    code, out, _ = run(capsys, "symbol", "--k", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    algebra = GradedLieAlgebra.from_json_dict(obj)
    assert algebra.to_json_dict()["basis"] == obj["basis"]
    assert [b["label"] for b in obj["basis"]] == ["L1_1", "L1_2", "L2_3"]


def test_symbol_model_matches_symbol_k(capsys):
    code1, out1, _ = run(capsys, "symbol", "--model", "heisenberg", "--format", "json")
    code2, out2, _ = run(capsys, "symbol", "--k", "1", "--format", "json")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["basis"] == b["basis"]
    assert a["brackets"] == b["brackets"]
    assert a["J"] == b["J"]


def test_symbol_bad_quotient_exits_2(tmp_path, capsys):
    bad = tmp_path / "quotient.json"
    bad.write_text(json.dumps({"kind": "explicit", "rows": [[{"re": "1", "im": "0"}]]}))
    code, _, err = run(capsys, "symbol", "--k", "2", "--quotient", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind": "explicit", "rows": "x"}', "quotient.rows: must be a list of lists"),
        ("[]", "quotient: top level must be an object"),
        ('{"kind": "explicit", "rows": [[1]]}', "quotient.rows[0][0]: must be an object with 're' and 'im'"),
        ('{"kind": "explicit", "rows": [[{"re": "1", "im": "0"}, {"re": "1"}]]}', "quotient.rows[0][1]: missing 'im'"),
        ('{"kind": "explicit", "rows": [[{"re": "1/x", "im": "0"}]]}', "quotient.rows[0][0].re: must be an exact rational"),
        ('{"kind": "bogus", "rows": []}', "quotient.kind: must be one of"),
        ('{"kind": "default", "provenance": 5}', "quotient.provenance: must be a string, got 5"),
        ('{"kind": "default", "provenance": ["a"]}', "quotient.provenance: must be a string, got ['a']"),
    ],
    ids=[
        "rows-not-list",
        "top-level-list",
        "entry-not-object",
        "missing-im",
        "bad-literal",
        "bad-kind",
        "provenance-number",
        "provenance-list",
    ],
)
def test_malformed_quotient_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "quotient.json"
    path.write_text(text)
    code, out, err = run(capsys, "symbol", "--k", "3", "--quotient", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert message in err


def test_symbol_rejects_quotient_with_model(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    code, out, err = run(capsys, "symbol", "--model", "cubic2", "--quotient", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "--quotient" in err


def test_catalog_loaded_only_for_model_commands(monkeypatch, capsys):
    def refuse():
        raise AssertionError("catalog built for a command that reads no model")

    monkeypatch.setattr("crprolong.cli.builtin_catalog", refuse)
    assert run(capsys, "verify", "--k", "2")[0] == 0
    assert run(capsys, "witt")[0] == 0
    assert run(capsys, "symbol", "--k", "2")[0] == 0


def test_verify_heisenberg(capsys):
    code, out, _ = run(capsys, "verify", "--model", "heisenberg")
    assert code == 0
    assert "total dimension: 8" in out
    assert "verdict confirmed" in out


def test_verify_k3(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3")
    assert code == 0
    assert "total dimension: 7" in out


def test_verify_all_six_models(capsys):
    code, out, _ = run(capsys, "verify", "--all", "6", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    assert [r["model"] for r in reports] == sorted(r["model"] for r in reports)
    assert all(r["verdict"] == "confirmed" for r in reports)
    assert all(r["case"] in ("real-alpha", "complex-alpha") for r in reports)


def test_mutually_exclusive_selectors(capsys):
    code = main(["verify", "--k", "3", "--model", "heisenberg"])
    assert code == 2


def test_unknown_model_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--model", "nope")
    assert code == 2
    assert err == "error: unknown model id 'nope'\n"


def test_symbol_unknown_model_exits_2(capsys):
    code, out, err = run(capsys, "symbol", "--model", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: unknown model id 'nope'\n"


def test_models_listing(capsys):
    code, out, _ = run(capsys, "models")
    assert code == 0
    assert "heisenberg" in out
    assert "w1 - w̄1 = 2i (z z̄)" in out
    assert "∂_z" in out


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--k", "2", "--format", "json", "-o", str(target))
    assert code == 0
    assert out == ""
    reports = json.loads(target.read_text())
    assert reports[0]["verdict"] == "confirmed"


def test_models_json_round_trips_as_a_catalog(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    assert run(capsys, "models", "--format", "json", "-o", str(path)) == (0, "", "")
    builtin_text = run(capsys, "models")
    assert run(capsys, "models", "--catalog", str(path)) == builtin_text
    builtin_reports = run(capsys, "verify", "--all", "12", "--format", "json")
    assert builtin_reports[0] == 0
    assert run(capsys, "verify", "--all", "12", "--catalog", str(path), "--format", "json") == builtin_reports


def test_catalog_models_built_once_per_process(monkeypatch, tmp_path, capsys):
    from crprolong import frames

    frames.builtin_catalog()
    calls = []
    build = frames._frame_realized_model

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(frames, "_frame_realized_model", counted)
    outputs = []
    for n in range(2):
        target = tmp_path / f"quintic7-{n}.json"
        assert run(capsys, "verify", "--model", "quintic7", "--format", "json", "-o", str(target))[0] == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    assert calls == []


def test_catalog_file_read_on_every_call(tmp_path, capsys):
    from crprolong.frames import builtin_catalog, catalog_to_json

    path = tmp_path / "catalog.json"
    for mid in ("heisenberg", "cubic2"):
        path.write_text(catalog_to_json({mid: builtin_catalog()[mid]}))
        code, out, _ = run(capsys, "models", "--catalog", str(path))
        assert code == 0
        assert out.startswith(f"{mid}: ")
        assert len([line for line in out.splitlines() if not line.startswith(" ")]) == 1


def test_custom_catalog_file(tmp_path, capsys):
    from crprolong.frames import builtin_catalog, catalog_to_json

    cat = {"heisenberg": builtin_catalog()["heisenberg"]}
    path = tmp_path / "catalog.json"
    path.write_text(catalog_to_json(cat))
    code, out, _ = run(capsys, "verify", "--all", "12", "--catalog", str(path), "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 1


def _heisenberg_entry():
    from crprolong.frames import builtin_catalog

    return builtin_catalog()["heisenberg"].to_json_dict()


def _field_entry():
    from crprolong.frames import builtin_catalog, cr_field

    entry = _heisenberg_entry()
    cr = cr_field(builtin_catalog()["heisenberg"]).to_json_dict()
    return dict(entry, defining={"type": "field", "cr": cr})


def _with_cr(drop=None, **changes):
    """A one-entry catalog of the field-model entry with its CR field payload edited."""
    entry = _field_entry()
    cr = dict(entry["defining"]["cr"], **changes)
    cr.pop(drop, None)
    return [dict(entry, defining={"type": "field", "cr": cr})]


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _with_phi(obj, *exps, re="1"):
    """The entry with its one rigid phi replaced by terms of these exponents."""
    terms = [{"re": re, "im": "0", "exp": e} for e in exps]
    return dict(obj, defining=dict(obj["defining"], phi=[{"terms": terms}]))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda e: e, "catalog: top level must be a list"),
        (lambda e: ["heisenberg"], "catalog[0]: must be an object"),
        (lambda e: [_without(e, "id")], "catalog[0]: missing 'id'"),
        (lambda e: [_without(e, "k")], "catalog[0]: missing 'k'"),
        (lambda e: [_without(e, "defining")], "catalog[0]: missing 'defining'"),
        (lambda e: [dict(e, id=7)], "catalog[0].id: must be a string"),
        (lambda e: [e, e], "catalog[1].id: must be a string not used by an earlier entry"),
        (lambda e: [dict(e, k="1")], "catalog[0].k: must be a positive integer"),
        (lambda e: [dict(e, k=0)], "catalog[0].k: must be a positive integer"),
        (lambda e: [e, dict(e, id="h2", provenance=5)], "catalog[1].provenance: must be a string, got 5"),
        (lambda e: [dict(e, provenance=["a"])], "catalog[0].provenance: must be a string, got ['a']"),
        (lambda e: [dict(e, defining=_without(e["defining"], "type"))], "catalog[0].defining.type: must be one of"),
        (lambda e: [dict(e, defining={"type": "rigid"})], "catalog[0].defining: missing 'phi'"),
        (lambda e: [e, dict(e, id="h2", defining={"type": "rigid", "phi": [{}]})], "catalog[1]: defining.phi[0]: missing 'terms'"),
        (lambda e: [dict(e, defining={"type": "rigid", "phi": "x"})], "catalog[0]: defining.phi: must be a list"),
        (lambda e: [dict(e, defining={"type": "rigid", "phi": ["x"]})], "catalog[0]: defining.phi[0]: must be an object"),
        (lambda e: [dict(e, defining={"type": "rigid", "phi": [{"terms": "x"}]})], "catalog[0]: defining.phi[0]: terms: must be a list"),
        (lambda e: [dict(e, defining={"type": "rigid", "phi": [{"terms": ["x"]}]})], "catalog[0]: defining.phi[0]: terms[0]: must be an object"),
        (lambda e: [dict(e, defining={"type": "field", "cr": "x"})], "catalog[0]: defining.cr: must be an object"),
        (lambda e: _with_cr(drop="chart"), "catalog[0]: defining.cr: missing 'chart'"),
        (lambda e: _with_cr(drop="conj_perm"), "catalog[0]: defining.cr: missing 'conj_perm'"),
        (lambda e: _with_cr(drop="components"), "catalog[0]: defining.cr: missing 'components'"),
        (lambda e: _with_cr(chart="x"), "catalog[0]: defining.cr: chart: must be a list"),
        (lambda e: _with_cr(chart=["z", 7, "u1"]), "catalog[0]: defining.cr: chart[1]: must be a string, got 7"),
        (lambda e: _with_cr(conj_perm=[0, "a", 2]), "catalog[0]: defining.cr: conj_perm[1]: must be an integer, got 'a'"),
        (lambda e: _with_cr(conj_perm=[0, 0, 2]), "catalog[0]: defining.cr: conj_perm: must be a permutation of 0..2"),
        (lambda e: _with_cr(conj_perm=[1, 2, 0]), "catalog[0]: defining.cr: conj_perm: must be an involution"),
        (lambda e: _with_cr(components=[{"terms": []}, {}, {"terms": []}]), "catalog[0]: defining.cr: components[1]: missing 'terms'"),
        (lambda e: [dict(e, k=2)], "catalog[0]: need 2 defining polynomials"),
        (lambda e: [_with_phi(e, [1, 1, 0])], "catalog[0]: defining.phi[0]: terms[0].exp: must be a list of 2 non-negative integers"),
        (lambda e: [_with_phi(e, [1.5, 0.5])], "catalog[0]: defining.phi[0]: terms[0].exp: must be a list of 2 non-negative integers"),
        (lambda e: [_with_phi(e, [3, -1], [-1, 3])], "catalog[0]: defining.phi[0]: terms[0].exp: must be a list of 2 non-negative integers"),
        (lambda e: [_with_phi(e, [1, 1], re=0.1)], "catalog[0]: defining.phi[0]: terms[0].re: must be an exact rational string, got 0.1"),
        (lambda e: [_with_phi(e, [1, 1], re=1)], "catalog[0]: defining.phi[0]: terms[0].re: must be an exact rational string, got 1"),
        (lambda e: [_with_phi(e, [1, 1], re=None)], "catalog[0]: defining.phi[0]: terms[0].re: must be an exact rational string, got None"),
    ],
    ids=[
        "object",
        "entry-not-object",
        "no-id",
        "no-k",
        "no-defining",
        "id-not-string",
        "duplicate-id",
        "k-not-integer",
        "k-zero",
        "provenance-number",
        "provenance-list",
        "no-type",
        "no-payload",
        "bad-polynomial",
        "phi-not-list",
        "phi-entry-not-object",
        "terms-not-list",
        "term-not-object",
        "cr-not-object",
        "no-chart",
        "no-conj-perm",
        "no-components",
        "chart-not-list",
        "chart-name-not-string",
        "conj-perm-not-integer",
        "conj-perm-not-permutation",
        "conj-perm-not-involution",
        "component-bad",
        "wrong-count",
        "exp-too-long",
        "exp-not-integer",
        "exp-negative",
        "re-float",
        "re-integer",
        "re-null",
    ],
)
def test_malformed_catalog_exits_2(tmp_path, capsys, make, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(make(_heisenberg_entry())))
    code, out, err = run(capsys, "models", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--all", "0"), "--all must be at least 1"),
        (("verify", "--all", "-1"), "--all must be at least 1"),
        (("witt", "--max-length", "0"), "--max-length must be at least 1"),
        (("witt", "--max-length", "-2"), "--max-length must be at least 1"),
    ],
)
def test_nonpositive_bound_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert message in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "crprolong", "witt", "--max-length", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].split()[:2] == ["length", "dim"]
