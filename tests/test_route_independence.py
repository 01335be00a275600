"""Which library functions outside ``graded`` may name a single dgLa route.

The derived bracket and the differential each have an explicit and a
lifted route (``graded.*_explicit``, ``graded.*_lifted``).  Outside
``graded`` the library reaches them through ``derived_bracket`` and
``differential_d``, which run and compare both, or through
``graded._mc_coefficient``.  A function outside ``graded`` that names one
route (a call, an import, an attribute or a string) is pinned here, so a
new single-route caller has to be added to the allow-list, with its
reason, on purpose.
"""

import ast
import glob
import os

from golden_cases import ROOT

ALLOWED = set()

ROUTES = {"derived_bracket_explicit", "differential_d_explicit",
          "derived_bracket_lifted", "differential_d_lifted"}


def _names_route(node):
    return (isinstance(node, ast.Name) and node.id in ROUTES
            or isinstance(node, ast.Attribute) and node.attr in ROUTES
            or isinstance(node, ast.alias) and node.name in ROUTES
            or isinstance(node, ast.Constant) and node.value in ROUTES)


def _route_callers(tree, module):
    """Qualified names of the functions and methods in tree (nested ones
    counted with their outer function) that name a route; a module-level
    statement that does is counted as the module itself."""
    found = set()
    for top in tree.body:
        funcs = [(module, top)]
        if isinstance(top, ast.ClassDef):
            funcs = [(module + "." + top.name, f) for f in top.body]
        for prefix, f in funcs:
            if any(_names_route(n) for n in ast.walk(f)):
                found.add(prefix + "." + f.name
                          if isinstance(f, ast.FunctionDef) else prefix)
    return found


def test_the_check_sees_each_way_of_naming_a_route():
    src = ("from .graded import derived_bracket_explicit\n"
           "def f(d, p):\n"
           "    return graded.differential_d_lifted(d, 1, p)\n"
           "def g(d, p):\n"
           "    return getattr(graded, 'derived_bracket_lifted')(d, p, p)\n"
           "class C:\n"
           "    def h(self, d, p):\n"
           "        return differential_d_explicit(d, 1, p)\n"
           "def k(d, p):\n"
           "    return graded.derived_bracket(d, p, p)\n")
    assert _route_callers(ast.parse(src), "m") == {"m", "m.f", "m.g",
                                                   "m.C.h"}


def test_no_single_route_caller_outside_graded():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "leibniz_rb", "*.py")))
    assert len(paths) > 1
    found = set()
    for path in paths:
        module = os.path.basename(path)[:-3]
        if module == "graded":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found |= _route_callers(tree, module)
    assert found == ALLOWED
