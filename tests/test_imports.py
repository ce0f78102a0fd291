"""Import hygiene of the package, checked on its syntax trees with the standard library alone and in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crprolong

PACKAGE = Path(crprolong.__file__).parent
# every tree that may read a field of a package class
READERS = [PACKAGE.parents[1] / d for d in ("src", "tests", "perfbench", "scripts")]


def _unused_imports(tree) -> list:
    """(line, name) of every name that ``tree`` imports but neither reads nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


def test_unused_import_check_flags_a_leftover_name():
    tree = ast.parse("from .exact import QI, Matrix\nimport json, os.path\n__all__ = ['Matrix']\njson.dumps(os.sep)\n")
    assert _unused_imports(tree) == [(1, "QI")]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(ast.parse((PACKAGE / path).read_text())) == []


def _orphan_helpers(sources) -> list:
    """(module, name) of every private top-level function, class or constant that no module reads outside its own definition.

    ``sources`` maps module names to source text.  A read is a loaded
    name or an attribute of that name anywhere in the package; a read
    inside the definition itself (a recursive call) does not count.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = []  # (module, name, the node that defines it)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((module, t.id, node) for t in targets if isinstance(t, ast.Name))
    private = [(m, name, node) for m, name, node in defined if name.startswith("_") and not name.startswith("__")]
    reads = {}  # name: the reading nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    orphans = []
    for module, name, node in private:
        inside = {id(n) for n in ast.walk(node)}
        if not any(id(n) not in inside for n in reads.get(name, ())):
            orphans.append((module, name))
    return sorted(orphans)


def test_orphan_check_flags_a_planted_helper():
    sources = {
        "a": "_LIMIT = 3\n_unused = 1\ndef _loop(n):\n    return _loop(n - 1) if n else 0\ndef _used():\n    return _LIMIT\nclass _Gone:\n    pass\n",
        "b": "from . import a\nfrom .a import _used\nprint(_used(), a._loop)\n",
    }
    assert _orphan_helpers(sources) == [("a", "_Gone"), ("a", "_unused")]
    # a recursive call alone is no read
    sources["b"] = "from .a import _used\nprint(_used())\n"
    assert _orphan_helpers(sources) == [("a", "_Gone"), ("a", "_loop"), ("a", "_unused")]


def test_every_private_helper_is_read_somewhere_in_the_package():
    assert _orphan_helpers({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def _is_dataclass(node) -> bool:
    return any(
        getattr(d, "id", None) == "dataclass" or getattr(d, "attr", None) == "dataclass"
        for d in (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
    )


def _init_attributes(cls) -> set:
    """The attributes that ``cls.__init__`` assigns to its first argument."""
    init = next((node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"), None)
    if init is None:
        return set()
    me = init.args.args[0].arg
    return {
        node.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == me
    }


def _orphan_fields(sources, readers) -> list:
    """(module, class, field) of every field of a class in ``sources`` that no reader loads as an attribute.

    A field is a dataclass field, a ``__slots__`` entry or, in a class
    without ``__slots__``, an attribute its ``__init__`` assigns to self.
    ``sources`` maps module names to the source text whose classes are
    checked, ``readers`` is every source text that may read them (those
    modules included).  A read is ``x.field`` in a load context for any
    ``x``: a name read anywhere keeps every field of that name.  A
    ``ClassVar`` annotation is no field.
    """
    read = {
        node.attr
        for text in readers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    orphans = []
    for module, text in sources.items():
        for cls in (node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)):
            fields, slotted = [], False
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and _is_dataclass(cls):
                    if "ClassVar" not in ast.unparse(node.annotation):
                        fields.append(node.target.id)
                elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
                    fields.extend(ast.literal_eval(node.value))
                    slotted = True
            if not slotted:
                fields += _init_attributes(cls)
            orphans += [(module, cls.name, name) for name in fields if name not in read]
    return sorted(orphans)


def test_orphan_field_check_flags_a_planted_field():
    sources = {
        "a": (
            "from dataclasses import dataclass\nfrom typing import ClassVar\n"
            "@dataclass\nclass Prolonged:\n    negative: int\n    algebra: int\n    limit: ClassVar[int] = 3\n"
            "@dataclass(frozen=True)\nclass Spec:\n    rows: tuple = ()\n"
            "class Plain:\n    note: str = ''\n"
            "class Reducer:\n    __slots__ = ('reduced', 'pivots')\n"
            "    def __init__(self):\n        self.reduced, self.pivots = (), []\n"
            "class Model:\n    def __init__(me, cr, weights):\n        me.cr, me.weights = cr, weights\n"
            "        me.cr.comps = ()\n    def reset(self):\n        self.cache = {}\n"
        ),
    }
    readers = [sources["a"], "def f(p, s, e, m):\n    return p.algebra, s.rows, e.reduced, m.cr\n"]
    # a store in __init__ is no read, a plain class's annotation is no field,
    # and a plain class's fields are what its __init__ assigns to its first argument
    orphans = [("a", "Model", "weights"), ("a", "Prolonged", "negative"), ("a", "Reducer", "pivots")]
    assert _orphan_fields(sources, readers) == orphans
    # a read through any object keeps the field
    assert _orphan_fields(sources, readers + ["print(x.negative, y.weights)\n"]) == [("a", "Reducer", "pivots")]


def test_every_field_of_a_package_class_is_read():
    readers = [path.read_text() for root in READERS for path in sorted(root.rglob("*.py"))]
    assert _orphan_fields({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}, readers) == []


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """A fresh ``import crprolong`` and ``crprolong.cli`` stay off ``dataclasses`` and the ``inspect`` it pulls in.

    Both are start-up cost that every ``crprolong`` process would pay, and
    no class of the package needs them.
    """
    code = "import sys, crprolong, crprolong.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
