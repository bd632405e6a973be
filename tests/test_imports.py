"""Every name a module of the package imports is used in that module,
every private top-level name of the package is read somewhere in it, a
public one and a method of a class too unless it is listed with its
reason, the core modules never read a curve name, no module makes an
instance around its constructor, and no line is over 79 characters."""

import ast
from pathlib import Path

import pytest

import enriques

MODULES = sorted(Path(enriques.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the module's import statements that no other
    statement of the module reads, in order of appearance."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = "import json\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(source) == ["json", "s"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def object_new_reads(source):
    """The 1-based lines of source that read object.__new__, which makes
    an instance without running its __init__ or __post_init__; sorted."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_object_new_reads_are_found():
    source = ("a = object.__new__(C)\nb = C.__new__(C)\n"
              "new = object.__new__\n")
    assert object_new_reads(source) == [1, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_builds_instances_through_their_constructors(path):
    assert object_new_reads(path.read_text()) == []


MAX_LINE = 79


def long_lines(source):
    """The 1-based numbers of the lines of source over MAX_LINE
    characters."""
    return [n for n, line in enumerate(source.splitlines(), 1)
            if len(line) > MAX_LINE]


def test_long_lines_are_found():
    source = "a = 1\n" + "#" * MAX_LINE + "\n" + "b" * (MAX_LINE + 1) + "\n"
    assert long_lines(source) == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_lines_fit_the_line_length(path):
    assert long_lines(path.read_text()) == []


def _bound(stmt):
    """Names a top-level statement binds: a def, a class or the plain
    names among assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def orphans(sources, private=True):
    """Top-level names of the modules whose sources are given, private
    (one leading underscore) or else public (none), that no statement
    reads, as a name or an attribute, other than the statement defining
    them; sorted."""
    defined, read = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            bound = _bound(stmt)
            defined |= {name for name in bound if not name.startswith("__")
                        and name.startswith("_") == private}
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, ast.Attribute)
                     or (isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load))} - bound
    return sorted(defined - read)


def test_private_orphans_are_found():
    first = ("_used = 1\n_unused: int = 2\n_a, _b = 3, 4\n__all__ = []\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Kept:\n    pass\n")
    second = "from first import _used\nprint(_used, _a, first._Kept)\n"
    assert orphans([first, second]) == ["_b", "_recursive", "_unused"]
    assert orphans([first, second], private=False) == []
    assert orphans([second, "def f():\n    pass\ng = 1\nprint(g)\n"],
                   private=False) == ["f"]


def test_package_reads_every_private_name_it_defines():
    assert orphans(path.read_text() for path in MODULES) == []


# public names that no module of the package reads, each with its reason
UNREAD_PUBLIC = {
    "connected_subsets": "the reference enumerator root_subsets is checked "
                         "against",
    "decompose_fiber": "read by the acceptance tests",
    "generic_form": "read by the benchmark workloads",
    "double_plane_octic": "read by the benchmark workloads",
}


def test_package_reads_every_public_name_not_listed():
    assert orphans((path.read_text() for path in MODULES),
                   private=False) == sorted(UNREAD_PUBLIC)


def unread_methods(sources):
    """Class.method for each non-dunder method of a top-level class of
    the modules whose sources are given that no module reads as an
    attribute (x.method); sorted."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        defined |= {(stmt.name, node.name) for stmt in tree.body
                    if isinstance(stmt, ast.ClassDef) for node in stmt.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("__")}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
    return sorted(f"{cls}.{name}" for cls, name in defined
                  if name not in read)


def test_unread_methods_are_found():
    first = ("class A:\n    def __init__(self):\n        self.kept()\n"
             "    def kept(self):\n        pass\n"
             "    def lost(self):\n        pass\n"
             "    @property\n    def shown(self):\n        pass\n")
    second = "class B:\n    def lost(self):\n        pass\nprint(A().shown)\n"
    assert unread_methods([first, second]) == ["A.lost", "B.lost"]
    assert unread_methods([first, second, "f(x.lost)\n"]) == []


# methods that no module of the package reads, each with its reason
UNREAD_METHODS = {
    "_Parser.error": "argparse calls it on a usage error",
    "MultiPoly.degree": "read by the polynomial tests",
}


def test_package_reads_every_method_not_listed():
    assert unread_methods(path.read_text() for path in MODULES) == sorted(
        UNREAD_METHODS)


# the core modules, which take sets of curves as vertex indices, and the
# CurveConfig and Divisor attributes that read or write curve names
CORE = ("rootfibers", "divisors", "classify", "lattice", "exactmat")
NAME_API = {"names", "index", "pair", "from_map"}


def name_reads(source):
    """The curve-name attributes the source accesses, sorted."""
    return sorted(node.attr for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in NAME_API)


def test_name_reads_are_found():
    source = ("print(cfg.names[0], cfg.index('a'), cfg.pair('a', 'b'))\n"
              "d = Divisor.from_map({'a': 1}, cfg).vec\n"
              "names, pairs = cfg.inter, d.pairs\n")
    assert name_reads(source) == ["from_map", "index", "names", "pair"]


@pytest.mark.parametrize("module", CORE)
def test_core_modules_read_no_curve_names(module):
    path = Path(enriques.__file__).parent / f"{module}.py"
    assert name_reads(path.read_text()) == []
