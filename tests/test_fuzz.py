"""Seeded input fuzzer: mutated catalogs, quotient specs and arguments through ``cli.main``.

Each case mutates a built-in catalog (one entry or the whole list) or a
quotient spec once or twice: a value is replaced by one of another type
or by an extreme, a key or list item is dropped, or a list item is
duplicated.  A mutated catalog runs through ``models --catalog`` and
``verify --all``, a mutated quotient through ``symbol --k K --quotient``.
An argument case mutates a valid command line once or twice: a token is
dropped, a flag is duplicated with its value, a flag value is replaced by
one of another type, an extreme ``--k`` is added, or an unknown flag is
inserted.
Every run must end in exit code 0 or 1 with a report on stdout, or in exit
code 2 with one ``error:`` line on stderr and nothing on stdout; it must
not raise, and it must finish within ``LIMIT_S`` (an ``ITIMER_REAL``
alarm on the main thread, so the fuzzer starts no thread or process).
"""

import contextlib
import copy
import io
import json
import random
import signal
import threading
import traceback

import pytest
from quotients import random_quotient, rotation_stable_quotient, unstable_quotient

from crprolong import cli
from crprolong.frames import builtin_catalog, catalog_to_json
from crprolong.liealg import build_symbol_algebra

SEEDS = range(1, 6)
CASES_PER_SEED = 100
LIMIT_S = 5.0

OTHER_TYPES = ["x", 7, -1, 2.5, None, True, False, [], {}, [1], {"a": 1}, "1/2"]
EXTREMES = [0, -1, 10**30, -(10**30), 2**63, 10**6, cli.MAX_K + 1, "", "9" * 5000, "1/0", "-0", "1e400", "NaN", "\x00", [[], [], []]]


class CaseTimeout(Exception):
    pass


def _catalogs():
    entries = json.loads(catalog_to_json(builtin_catalog()))
    return [[e] for e in entries] + [entries]


def _quotients():
    specs = [(k, build_symbol_algebra(k).quotient) for k in (2, 4, 5, 8)]
    specs += [(k, draw(k, 1)) for k in (4, 8) for draw in (random_quotient, rotation_stable_quotient, unstable_quotient)]
    return [(k, spec.to_json_dict()) for k, spec in specs]


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(doc, rng):
    """A mutated deep copy of ``doc`` and a description of the mutation."""
    doc = copy.deepcopy(doc)
    kind = rng.choice(["type", "extreme", "drop", "duplicate"])
    paths = list(_paths(doc))
    if kind == "drop":
        paths = [p for p in paths if p]
    elif kind == "duplicate":
        paths = [p for p in paths if isinstance(_at(doc, p), list) and _at(doc, p)]
    if not paths:
        return doc, "none"
    path = rng.choice(paths)
    if kind == "drop":
        del _at(doc, path[:-1])[path[-1]]
        return doc, f"drop {path}"
    if kind == "duplicate":
        items = _at(doc, path)
        items.insert(rng.randrange(len(items) + 1), copy.deepcopy(rng.choice(items)))
        return doc, f"duplicate in {path}"
    value = copy.deepcopy(rng.choice(OTHER_TYPES if kind == "type" else EXTREMES))
    if not path:
        return value, f"root = {value!r:.40}"
    _at(doc, path[:-1])[path[-1]] = value
    return doc, f"{path} = {value!r:.40}"


def _on_alarm(signum, frame):
    raise CaseTimeout


def _run(argv):
    """``cli.main(argv)`` under the time limit, as (exit code or failure text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except CaseTimeout:
        code = f"no result within {LIMIT_S} s"
    except Exception as exc:  # noqa: BLE001 - any escape is the failure being looked for
        code = "raised " + "".join(traceback.format_exception_only(exc)).strip()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _well_ended(code, out, err) -> bool:
    if code in (0, 1):
        return bool(out.strip())
    lines = err.splitlines()
    return code == 2 and not out and len(lines) == 1 and lines[0].startswith("error: ")


def _cases(rng, tmp_path):
    """(description, argv) pairs of one seed, with their input files written under ``tmp_path``."""
    catalogs, quotients = _catalogs(), _quotients()
    for case in range(CASES_PER_SEED):
        if rng.random() < 0.5:
            doc, how = _mutate(rng.choice(catalogs), rng)
            commands = [["models", "--catalog"], ["verify", "--all", str(cli.MAX_K), "--catalog"]]
        else:
            k, doc = rng.choice(quotients)
            doc, how = _mutate(doc, rng)
            commands = [["symbol", "--k", str(k), "--quotient"]]
        if rng.random() < 0.5:
            doc, again = _mutate(doc, rng)
            how += f"; {again}"
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            yield f"case {case} ({how}): {command[0]}", command + [str(path)]


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_inputs_end_in_a_report_or_one_error_line(tmp_path, seed):
    assert threading.current_thread() is threading.main_thread()  # the alarm is delivered there
    failures = []
    for what, argv in _cases(random.Random(seed), tmp_path):
        code, out, err = _run(argv)
        if not _well_ended(code, out, err):
            failures.append(f"{what}: exit {code!r}, stderr {err.strip()[:200]!r}")
    assert not failures, "\n".join(failures)


# valid command lines, each cheap enough to run whole within LIMIT_S
COMMAND_LINES = [
    ["witt", "--max-length", "3"],
    ["witt", "--format", "json"],
    ["symbol", "--k", "3", "--format", "json"],
    ["symbol", "--model", "cubic2"],
    ["symbol", "--k", "2", "--quotient", "default"],
    ["verify", "--k", "2"],
    ["verify", "--model", "heisenberg", "--format", "json"],
    ["verify", "--all", "3"],
    ["models"],
    ["models", "--format", "json"],
]
FLAG_VALUES = ["x", "", "-1", "0", "2.5", "1e3", "[]", "json", "heisenberg", "--k", "9" * 5000, "\x00"]
UNKNOWN_FLAGS = ["--bogus", "-z", "--kk", "--Model", "--k=", "--format=", "---", "-"]


def _mutate_argv(argv, rng):
    """A mutated copy of the command line ``argv`` and a description of the mutation."""
    argv = list(argv)
    kind = rng.choice(["drop", "duplicate", "retype", "extreme", "unknown"])
    flags = [p for p, a in enumerate(argv) if a.startswith("--")]
    values = [p for p in range(1, len(argv)) if not argv[p].startswith("--")]
    if kind == "drop":
        del argv[rng.randrange(len(argv))]
    elif kind == "duplicate" and flags:
        p = rng.choice(flags)
        pair = argv[p : p + 2] if p + 1 in values else argv[p : p + 1]
        at = rng.randint(1, len(argv))
        argv[at:at] = pair
    elif kind == "retype" and values:
        argv[rng.choice(values)] = rng.choice(FLAG_VALUES)
    elif kind == "extreme":
        k = str(rng.choice([x for x in EXTREMES if isinstance(x, int)]))
        if "--k" in argv and argv.index("--k") + 1 < len(argv):
            argv[argv.index("--k") + 1] = k
        else:
            argv += ["--k", k]
    elif kind == "unknown":
        argv.insert(rng.randint(0, len(argv)), rng.choice(UNKNOWN_FLAGS))
    return argv, kind


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_arguments_end_in_a_report_or_one_error_line(seed):
    assert threading.current_thread() is threading.main_thread()  # the alarm is delivered there
    rng = random.Random(seed)
    failures = []
    for case in range(CASES_PER_SEED):
        argv, how = _mutate_argv(rng.choice(COMMAND_LINES), rng)
        if rng.random() < 0.5:
            argv, again = _mutate_argv(argv, rng)
            how += f"; {again}"
        code, out, err = _run(argv)
        if not _well_ended(code, out, err):
            failures.append(f"case {case} ({how}) {[a[:40] for a in argv]}: exit {code!r}, stderr {err.strip()[:200]!r}")
    assert not failures, "\n".join(failures)
