"""Every parameter of every function in the package is read in its body.

A parameter that selects nothing (accepted, documented, never read) is an
API that promises a choice the code does not make. Exempt are ``self``,
``cls``, names starting with ``_``, and the protocol parameters below, which
a caller passes because the protocol does and which these classes ignore.
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


def unread_parameters() -> list:
    src = os.path.dirname(mfjump.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += _unread(tree, os.path.splitext(os.path.basename(path))[0])
    return found


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
