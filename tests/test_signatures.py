"""Every parameter of every function in the package is read in its body,
and every dataclass field is read somewhere.

A parameter that selects nothing (accepted, documented, never read) is an
API that promises a choice the code does not make. Exempt are ``self``,
``cls``, names starting with ``_``, and the protocol parameters below, which
a caller passes because the protocol does and which these classes ignore.
A stored value that nothing reads is the same promise made by a field.
"""
import ast
import glob
import os

import mfjump

# "module.Qual.Name(param)" of each protocol parameter left unread on purpose
ALLOWED = {
    "coeffs.PointMassMeasure.integrate(breakpoints)",  # atoms need no partition
    "coeffs.MeanFieldAverage.__call__(t)",  # the average of the state alone
    "presets.LipschitzModulus.__call__(m)",  # one modulus for every index
    "scenario._passthrough(path)",  # a field parser that checks nothing
    "solver.Forcing.__array__(copy)",  # numpy's array protocol; always a copy
}

# "module.Class.field" of each dataclass field that only the unit tests read
ALLOWED_FIELDS = {
    "noise.JumpEvent.mark",  # the benchmark's per-path view of an event
    "uniqueness.PhiFunctions.offset",  # construction invariants the tests check
    "uniqueness.PhiFunctions.psi_sup_bound",
}

SRC = os.path.dirname(mfjump.__file__)
ROOT = os.path.join(os.path.dirname(__file__), "..")


def _params(args: ast.arguments) -> list:
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in every]


def _unread(tree: ast.Module, module: str) -> list:
    """``module.Qual.Name(param)`` for each parameter that no ``Load`` of its
    name in the function's body (nested functions included) reads."""
    found = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, qual + [child.name])
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                body = child.body if isinstance(child.body, list) else [child.body]
                loaded = {n.id for stmt in body for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for param in _params(child.args):
                    if param in ("self", "cls") or param.startswith("_"):
                        continue
                    if param not in loaded:
                        found.append(f"{'.'.join([module] + qual + [name])}({param})")
                visit(child, qual + [name])
                continue
            visit(child, qual)

    visit(tree, [])
    return found


def _trees(paths) -> dict:
    """Module name -> parsed source, for each file of ``paths``."""
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees[os.path.splitext(os.path.basename(path))[0]] = ast.parse(
                fh.read(), filename=path)
    return trees


def _package() -> dict:
    return _trees(sorted(glob.glob(os.path.join(SRC, "*.py"))))


def unread_parameters() -> list:
    return [found for module, tree in _package().items() for found in _unread(tree, module)]


def _fields(tree: ast.Module, module: str) -> list:
    """``module.Class.field`` for each annotated field of each ``@dataclass``."""
    def is_dataclass(node):
        return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                   for d in node.decorator_list)
    return [f"{module}.{node.name}.{stmt.target.id}"
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _attributes_read(tree: ast.Module) -> set:
    """Each name the source reads as ``x.name`` or ``getattr(x, "name"...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def unread_fields() -> list:
    """Dataclass fields of the package that neither the package, the
    acceptance criteria nor the benchmark read.

    The check goes by name, not by class: a field counts as read if any
    attribute of its name is, so it cannot see a field whose name another
    class also has and that class's users read (``DivergenceReport.n_paths``
    stayed unread while ``batch.n_paths`` was read everywhere)."""
    package = _package()
    others = _trees([os.path.join(ROOT, "tests", "test_acceptance.py")]
                    + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))))
    read = set().union(*map(_attributes_read, [*package.values(), *others.values()]))
    return [found for module, tree in package.items()
            for found in _fields(tree, module) if found.rsplit(".", 1)[1] not in read]


def test_every_parameter_is_read():
    unread = unread_parameters()
    assert sorted(set(unread) - ALLOWED) == []


def test_allow_list_is_not_stale():
    # an allowed parameter that is now read, or gone, leaves the list
    assert sorted(ALLOWED - set(unread_parameters())) == []


def test_the_guard_sees_an_unread_parameter():
    tree = ast.parse("class A:\n"
                     "    def f(self, used, unused, _private):\n"
                     "        g = lambda x, y: x\n"
                     "        return used + g(1, 2)\n")
    assert _unread(tree, "m") == ["m.A.f(unused)", "m.A.f.<lambda>(y)"]


def test_every_dataclass_field_is_read():
    assert sorted(set(unread_fields()) - ALLOWED_FIELDS) == []


def test_field_allow_list_is_not_stale():
    # an allowed field that is now read, or gone, leaves the list
    assert sorted(ALLOWED_FIELDS - set(unread_fields())) == []


def test_the_guard_sees_an_unread_field():
    tree = ast.parse("@dataclass(frozen=True)\n"
                     "class A:\n"
                     "    kept: int\n"
                     "    stored: int\n"
                     "    fetched: int\n"
                     "    plain = 0\n"
                     "class B:\n"
                     "    ignored: int\n"
                     "def f(a):\n"
                     "    a.stored = 1\n"
                     "    return a.kept + getattr(a, 'fetched')\n")
    assert _fields(tree, "m") == ["m.A.kept", "m.A.stored", "m.A.fetched"]
    assert _attributes_read(tree) == {"kept", "fetched"}
