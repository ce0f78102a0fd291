"""``scripts/raise_sites.py`` reports a raise that a test reaches as HIT and one it does not reach as MISS."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''def check(x):
    if x < 0:
        raise ValueError("negative")
    if x > 10:
        raise ValueError("too large")
    return x
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_raise_sites_marks_a_reached_raise_hit_and_an_unreached_one_miss(tmp_path):
    (tmp_path / "toy.py").write_text(TOY, encoding="utf-8")
    script = load("raise_sites", ROOT / "scripts" / "raise_sites.py")
    toy = load("toy", tmp_path / "toy.py")

    def run():
        with pytest.raises(ValueError, match="negative"):
            toy.check(-1)

    sites = script.raise_sites(tmp_path)
    assert [(line, function, raised) for _, line, function, raised in sites] == [
        (3, "check", "ValueError('negative')"),
        (5, "check", "ValueError('too large')"),
    ]
    assert script.traced(sites, run) == {((tmp_path / "toy.py").resolve(), 3)}
