import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "elastic_lens"


def unused_imports(source):
    """Names a module imports (``__future__`` aside) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "b (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_import_nothing_unused(path):
    assert unused_imports(path.read_text()) == []


def module_level_imports(source):
    """(top-level package, line) of each import outside function bodies."""
    found, stack = [], list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_module_level_imports_are_found():
    source = ("import scipy.fft\nfrom scipy import signal\nfrom . import errors\n"
              "class C:\n    import json\n    def m(self):\n        import os\n"
              "def f():\n    from scipy.interpolate import CubicSpline\n"
              "try:\n    import numpy as np\nexcept ImportError:\n    pass\n")
    assert module_level_imports(source) == [
        ("json", 5), ("numpy", 11), ("scipy", 1), ("scipy", 2)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_import_no_scipy_at_module_level(path):
    # scipy costs about half a second to import; the package loads it only
    # inside the functions that need it
    assert [line for name, line in module_level_imports(path.read_text())
            if name == "scipy"] == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def unused_private_names(sources):
    """Module-level ``_name`` definitions and ``_method`` methods of the
    modules in `sources` (module name -> source) that no module reads, as
    a Name or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.id, n.lineno) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, m.name, m.lineno) for m in node.body
                            if isinstance(m, ast.FunctionDef)]
    return sorted(f"{module}: {name} (line {line})" for module, name, line in defined
                  if _is_private(name) and name not in read)


def test_unused_private_names_are_found():
    sources = {"a": "def _f(): pass\n_K, _L = 1, 2\nclass C:\n"
                    "    def _m(self): pass\n    def __init__(self): self._g()\n"
                    "    def _g(self): pass\n",
               "b": "from a import _K\nprint(_K)\n"}
    assert unused_private_names(sources) == [
        "a: _L (line 2)", "a: _f (line 1)", "a: _m (line 4)"]


def test_package_defines_no_unused_private_names():
    assert unused_private_names({p.stem: p.read_text()
                                 for p in sorted(PACKAGE.glob("*.py"))}) == []


def _dataclasses(tree):
    """The ``@dataclass`` classes of a module's tree."""
    return [cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list)]


def unpassed_defaults(sources, callers):
    """Defaulted parameters of the functions and methods, and defaulted
    fields of the ``@dataclass`` classes, of the modules in `sources` (module
    name -> source) that no call in them or in the `callers` sources passes.
    Calls resolve by simple or attribute name, a class name standing for its
    ``__init__`` or its fields in order; a call with ``*args`` or ``**kw``
    passes every parameter.  Fields declared with
    ``field(default_factory=...)`` are exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = {}
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                calls.setdefault(name, []).append(call)
    defaulted = []      # (module, function or class name, position or None, name, line)
    for module, tree in trees.items():
        owner = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for f in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            name = cls.name if cls and fn.name == "__init__" else fn.name
            bound = cls is not None and "staticmethod" not in {
                getattr(d, "id", None) for d in fn.decorator_list}
            positional = [*fn.args.posonlyargs, *fn.args.args][bound:]
            defaulted += [(module, name, i, a.arg, fn.lineno) for i, a in enumerate(positional)
                          if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(module, name, None, a.arg, fn.lineno)
                          for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
        for cls in _dataclasses(tree):
            fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
            defaulted += [(module, cls.name, i, f.target.id, f.lineno)
                          for i, f in enumerate(fields) if f.value is not None
                          and not (isinstance(f.value, ast.Call) and any(
                              k.arg == "default_factory" for k in f.value.keywords))]
    return sorted(f"{module}: {name}({arg}) (line {line})"
                  for module, name, i, arg, line in defaulted
                  if not any(any(isinstance(a, ast.Starred) for a in call.args)
                             or any(k.arg in (None, arg) for k in call.keywords)
                             or i is not None and len(call.args) > i
                             for call in calls.get(name, [])))


def test_unpassed_defaults_are_found():
    sources = {"a": "def f(x, y=1, *, z=2): pass\nclass C:\n"
                    "    def __init__(self, p=0, q=1): pass\n"
                    "    def m(self, r=3): pass\n"
                    "    @staticmethod\n    def s(t=4): pass\n"
                    "f(1, 2)\nC(q=5).m(*args)\n"}
    callers = ["from a import C\nC.s(**kw)\n"]
    assert unpassed_defaults(sources, callers) == ["a: C(p) (line 3)", "a: f(z) (line 1)"]


def test_unpassed_dataclass_fields_are_found():
    sources = {"a": "from dataclasses import dataclass, field\n@dataclass(frozen=True)\n"
                    "class D:\n    x: int\n    y: int = 0\n    z: int = 1\n"
                    "    w: list = field(default_factory=list)\n    v: int = 2\n"
                    "class E:\n    u: int = 0\n"
                    "D(1, 2)\n"}
    callers = ["from a import D\nD(1, v=3)\n"]
    assert unpassed_defaults(sources, callers) == ["a: D(z) (line 6)"]


def test_package_defaults_are_all_passed():
    tests = Path(__file__).resolve().parent
    assert unpassed_defaults({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))},
                             [p.read_text() for p in sorted(tests.glob("*.py"))]) == []


def unread_dataclass_fields(sources, readers):
    """Fields of the ``@dataclass`` classes of the modules in `sources`
    (module name -> source) that neither they nor the `readers` sources
    read as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}: {cls.name}.{f.target.id} (line {f.lineno})"
                  for module, tree in trees.items() for cls in _dataclasses(tree)
                  for f in cls.body if isinstance(f, ast.AnnAssign)
                  and f.target.id not in read)


def test_unread_dataclass_fields_are_found():
    sources = {"a": "from dataclasses import dataclass\n@dataclass\nclass P:\n"
                    "    x: float\n    y: float = 0.0\n@dataclass(frozen=True)\n"
                    "class Q:\n    z: int\nclass R:\n    w: int\n"}
    readers = ["def f(p, q):\n    p.y = 1\n    return p.x + q.z\n"]
    assert unread_dataclass_fields(sources, readers) == ["a: P.y (line 5)"]


def test_package_dataclass_fields_are_all_read():
    tests = Path(__file__).resolve().parent
    assert unread_dataclass_fields({p.stem: p.read_text()
                                    for p in sorted(PACKAGE.glob("*.py"))},
                                   [p.read_text() for p in sorted(tests.glob("*.py"))]) == []


def unread_instance_attributes(sources, readers):
    """``self.<name> = ...`` assignments in the classes of the modules in
    `sources` (module name -> source) whose name neither they nor the
    `readers` sources read as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}: {cls.name}.{node.attr} (line {node.lineno})"
                  for module, tree in trees.items()
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) == "self" and node.attr not in read)


def test_unread_instance_attributes_are_found():
    sources = {"a": "class E(Exception):\n    def __init__(self, m, r=None):\n"
                    "        super().__init__(m)\n        self.report, self.code = r, 1\n"
                    "        other.note = 2\nclass F:\n    def f(self):\n"
                    "        self.size = 3\n"}
    readers = ["def g(e, f):\n    e.code = 0\n    return e.code\n"]
    assert unread_instance_attributes(sources, readers) == [
        "a: E.report (line 4)", "a: F.size (line 8)"]


def test_package_instance_attributes_are_all_read():
    root = PACKAGE.parents[1]
    assert unread_instance_attributes(
        {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))},
        [p.read_text() for d in ("tests", "perfbench")
         for p in sorted((root / d).glob("*.py"))]) == []
