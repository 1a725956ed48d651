"""No module imports a name it never reads, the package's own imports form
no cycle, and the kernel's tables stay the kernel's: the oracle imports
only the chain specs from chains, and no module but chains reads a field
of a chain's plan. Batches have one layout: the package names
engine._by_row, the one conversion of a carried batch to (rows, n) int64,
only where engine.py defines it and where run_batch takes it as its
default snapshot.

Package __init__.py files are skipped by the unused-import check: their
imports are the re-exported public API.
"""

import ast
from pathlib import Path

import pytest

from localgibbs.chains import LubyPlan, MetropolisPlan

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localgibbs"
MODULES = sorted(p for d in ("src/localgibbs", "tests")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") \
        == ["line 1: os"]
    assert _unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _package_imports(sources: dict[str, str]) -> dict[str, set[str]]:
    """Module name -> the package modules it imports, relative or absolute,
    at any depth (inside functions too). "__init__" is the package itself;
    `from . import engine` is an import of engine, and `from . import
    __version__` one of __init__."""
    graph = {}
    for name, source in sources.items():
        deps = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                path = (node.module or "").split(".")
                if node.level == 0:
                    if path[0] != "localgibbs":
                        continue
                    path = path[1:]
                if path and path[0]:
                    deps.add(path[0])
                else:
                    deps.update(a.name if a.name in sources else "__init__"
                                for a in node.names)
            elif isinstance(node, ast.Import):
                deps.update((a.name.split(".") + ["__init__"])[1]
                            for a in node.names
                            if a.name.split(".")[0] == "localgibbs")
        graph[name] = deps & set(sources)
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as [a, b, ..., a], or [] when the graph has none."""
    state = dict.fromkeys(graph, 0)  # 0 new, 1 on the stack, 2 done
    stack: list[str] = []

    def visit(v):
        state[v] = 1
        stack.append(v)
        for w in sorted(graph[v]):
            if state[w] == 1:
                return stack[stack.index(w):] + [w]
            if state[w] == 0 and (found := visit(w)):
                return found
        stack.pop()
        state[v] = 2
        return []

    for v in sorted(graph):
        if state[v] == 0 and (found := visit(v)):
            return found
    return []


def test_checker_finds_an_import_cycle():
    sources = {"a": "def f():\n    from .b import g\n",
               "b": "from . import a\n", "c": "from .a import f\n",
               "d": "import localgibbs.c\nfrom . import __version__\n",
               "__init__": "from localgibbs.a import f\nimport numpy\n"}
    assert _package_imports(sources) == {
        "a": {"b"}, "b": {"a"}, "c": {"a"}, "d": {"c", "__init__"},
        "__init__": {"a"}}
    assert _cycle(_package_imports(sources)) == ["a", "b", "a"]
    assert _cycle(_package_imports({"a": "from . import b\n", "b": ""})) \
        == []


def test_package_imports_are_acyclic():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    assert _cycle(_package_imports(sources)) == []


def _chains_imports(source: str) -> list[str]:
    """The names a package module imports from chains; "chains" itself
    when it imports the module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "localgibbs":
                    continue
                path = path[1:]
            if path[:1] == ["chains"]:
                names += [a.name for a in node.names]
            elif not path or not path[0]:
                names += [a.name for a in node.names if a.name == "chains"]
        elif isinstance(node, ast.Import):
            names += ["chains" for a in node.names
                      if a.name.split(".")[:2] == ["localgibbs", "chains"]]
    return names


def _attribute_reads(source: str, attrs) -> list[str]:
    """Each `x.attr` in source whose attr is one of attrs, as
    "line N: attr"."""
    return [f"line {node.lineno}: {node.attr}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def _references(source: str, name: str) -> list[str]:
    """Each place source names name, in line order, as "line N: def"
    (a function of that name), "line N: import", "line N: name" (a bare
    name) or "line N: attr" (x.name)."""
    refs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            refs.append((node.lineno, "def"))
        elif isinstance(node, ast.alias) and node.name == name:
            refs.append((node.lineno, "import"))
        elif isinstance(node, ast.Name) and node.id == name:
            refs.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            refs.append((node.lineno, "attr"))
    return [f"line {line}: {kind}" for line, kind in sorted(refs)]


def test_checkers_find_chains_imports_and_plan_reads():
    assert _chains_imports("from .chains import ChainSpec, plan\n"
                           "from . import chains, mrf\n"
                           "import localgibbs.chains\n"
                           "from localgibbs.chains import SchedulerSpec\n"
                           "from .mrf import b_cdf\n") \
        == ["ChainSpec", "plan", "chains", "chains", "SchedulerSpec"]
    assert _attribute_reads("t = p.b_table\nu = q.b\n", {"b_table", "b"}) \
        == ["line 1: b_table", "line 2: b"]


def test_checker_finds_every_reference_to_a_name():
    source = ("from .engine import _by_row as convert\n"
              "y = engine._by_row(x)\n"
              "def run(x, snap=_by_row):\n"
              "    return _by_row(x), '_by_row'\n"
              "def _by_row(x):\n"
              "    return x\n")
    assert _references(source, "_by_row") == [
        "line 1: import", "line 2: attr", "line 3: name", "line 4: name",
        "line 5: def"]
    assert _references("by_row = 1\n", "_by_row") == []


def test_oracle_imports_only_the_chain_specs():
    # the oracle judges the kernel: it may name a chain, never build or
    # read the tables the kernel's rounds read
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert set(_chains_imports(source)) <= {"ChainSpec", "SchedulerSpec"}


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "chains.py"],
    ids=lambda p: p.name)
def test_only_chains_reads_a_plan_field(path):
    # a plan is the kernel's own: every other module sees the model alone
    fields = {*LubyPlan._fields, *MetropolisPlan._fields}
    assert _attribute_reads(path.read_text(encoding="utf-8"), fields) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_run_batch_converts_a_batch_by_row(path):
    # observers read the carried (n, rows) batch; run_batch's default
    # snapshot is the one place that turns it (rows, n) int64
    source = path.read_text(encoding="utf-8")
    refs = _references(source, "_by_row")
    if path.name != "engine.py":
        assert refs == []
        return
    tree = ast.parse(source)
    define = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_by_row")
    run_batch = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "run_batch")
    default = [d for d in run_batch.args.defaults
               if isinstance(d, ast.Name) and d.id == "_by_row"]
    assert len(default) == 1
    assert refs == [f"line {define.lineno}: def",
                    f"line {default[0].lineno}: name"]
