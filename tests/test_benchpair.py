"""``scripts/benchpair.py`` interleaves the two source trees run by run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def benchpair(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import benchpair

    return benchpair


def test_compare_alternates_the_side_that_runs_first(benchpair, monkeypatch):
    """Each round runs one process per side, the first side alternating; each process's fastest run pools into each median."""
    calls = []
    times = {"OLD": iter([0.5, 0.7, 0.6, 0.5, 0.9, 0.8]), "NEW": iter([0.2, 0.4, 0.3, 0.2, 0.1, 0.3])}

    def fake(script, src, key, runs):
        calls.append((key, src, runs))
        t = next(times[src])
        # a slow first run, the fastest in the middle: only the minimum pools
        return {"time_s": t + 0.1, "runs_s": [t + 0.3, t, t + 0.1], "n": 4}

    monkeypatch.setattr(benchpair, "run_side", fake)
    entries = benchpair.compare("bench.py", "OLD", "NEW", ["a", "b"], "workload", 3)
    order = ["OLD", "NEW", "NEW", "OLD", "OLD", "NEW"]
    assert calls == [("a", src, benchpair.PROCESS_RUNS) for src in order] + [("b", src, benchpair.PROCESS_RUNS) for src in order]
    assert benchpair.PROCESS_RUNS == 3
    assert entries[0] == {
        "workload": "a", "n": 4, "before_s": 0.6, "after_s": 0.3, "before_iqr_s": 0.1, "after_iqr_s": 0.1,
        "before_runs_s": [0.5, 0.7, 0.6], "after_runs_s": [0.2, 0.4, 0.3], "speedup": 2.0,
    }
    assert entries[1]["before_runs_s"] == [0.5, 0.9, 0.8] and entries[1]["after_s"] == 0.2


def test_compare_refuses_sides_that_disagree_on_the_sizes(benchpair, monkeypatch):
    monkeypatch.setattr(benchpair, "run_side", lambda script, src, key, runs: {"time_s": 1.0, "runs_s": [1.0], "n": len(src)})
    with pytest.raises(SystemExit, match="disagree on the sizes"):
        benchpair.compare("bench.py", "OLD", "NEWER", ["a"], "workload", 2)


def test_hidden_runs_option_sets_the_number_of_timed_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_real_form.py"), "--measure", "real_form21", "--runs", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["runs_s"]) == 2


def test_compare_records_work_counters_per_side_when_the_shared_sizes_are_named(benchpair, monkeypatch):
    """Only the ``shared`` sizes must agree; every other size is recorded under ``before_sizes`` and ``after_sizes``."""

    def fake(script, src, key, runs):
        return {"time_s": 1.0, "runs_s": [1.0], "rank": 6, "rows": 1493 if src == "OLD" else 7}

    monkeypatch.setattr(benchpair, "run_side", fake)
    [entry] = benchpair.compare("bench.py", "OLD", "NEW", ["a"], "workload", 2, shared=("rank",))
    assert entry["rank"] == 6 and "rows" not in entry
    assert entry["before_sizes"] == {"rows": 1493} and entry["after_sizes"] == {"rows": 7}
    with pytest.raises(SystemExit, match="disagree on the sizes"):
        benchpair.compare("bench.py", "OLD", "NEW", ["a"], "workload", 2, shared=("rank", "rows"))


def test_timed_makes_one_untimed_call_first(benchpair):
    """``timed`` calls ``run`` once before the timed runs, each call after ``reset()``, and reports only the timed runs."""
    calls = []
    out, timing = benchpair.timed(lambda: calls.append("run") or len(calls), 3, "solve_s", reset=lambda: calls.append("reset"))
    assert calls == ["reset", "run"] * 4
    assert out == 8 and set(timing) == {"solve_s", "runs_s"} and len(timing["runs_s"]) == 3


def test_each_entry_records_both_interquartile_ranges(benchpair, monkeypatch):
    """Next to each side's median, the spread of its pooled per-process minima: the inclusive quartiles' distance, 0 for one round."""
    times = {"OLD": iter([1.0, 1.2, 1.1, 3.0, 1.05, 1.0]), "NEW": iter([0.5] * 5 + [0.6])}
    monkeypatch.setattr(benchpair, "run_side", lambda script, src, key, runs: {"time_s": 1.0, "runs_s": [next(times[src])]})
    [entry] = benchpair.compare("bench.py", "OLD", "NEW", ["a"], "workload", 6)
    # OLD sorted: 1.0, 1.0, 1.05, 1.1, 1.2, 3.0; quartiles 1.0125 and 1.175
    assert (entry["before_s"], entry["before_iqr_s"]) == (1.075, 0.1625)
    assert (entry["after_s"], entry["after_iqr_s"]) == (0.5, 0.0)
    assert benchpair.iqr([0.7]) == benchpair.iqr([]) == 0.0
