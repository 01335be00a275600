"""Source rules: what the library's code may contain, one row per rule.

The ASTs of ``src/leibniz_rb/*.py`` are loaded once.  One walker yields
each function with its qualified name: methods as ``module.Class.name``,
nested functions counted with their outer function, a module-level
statement as the module (a class-level one as its class).  A rule is a
predicate on AST nodes, a scope and an allow-list: the units in scope with
a matching node must be the allow-list, so a new one is added, with its
reason, on purpose.  Each rule flags a sample source of its own, so a
checker that sees nothing fails.  The rules:

- ``no-assert``: no check in the library may rest on ``assert``:
  ``python -O`` strips it.
- ``switches``: each dual-route quantity always runs both of its routes,
  and each input check always runs: code that needs one route calls it by
  name (``derived_bracket_explicit``, ``differential_d_explicit``).  A
  ``cross_check`` or ``validate`` parameter, which could turn a second
  route or a check off, is pinned.
- ``dense-views``: every structure tensor is kept once, as a sparse store;
  ``.c``, ``.left`` and ``.right`` (and ``_Store.dense``/``dense_rows``)
  build its dense nested tuples.  Library code works on the stores, so the
  functions that still read a dense view are pinned.  ``_Store`` itself,
  which builds the views, is not counted.
- ``single-route``: the derived bracket and the differential each have an
  explicit and a lifted route (``graded.*_explicit``, ``graded.*_lifted``).
  Outside ``graded`` the library reaches them through ``derived_bracket``
  and ``differential_d``, which run and compare both, or through
  ``graded._mc_coefficient``.  A function outside ``graded`` that names one
  route (a call, an import, an attribute or a string) is pinned.
- ``one-mc-path``: the Maurer-Cartan layer has one path in every
  characteristic.  Its coefficients are halved exactly over ``ZZ`` before
  the reduction mod p, so no code divides by 2 in a field or treats
  characteristic 2 apart: a comparison of a ``characteristic`` attribute
  with the constant 2, or a call of an attribute named ``half``, is a fork
  for GF(2) that must not come back unseen.
"""

import ast
import glob
import os
from collections import namedtuple

import pytest

from golden_cases import ROOT

TREES = {}
for _path in sorted(glob.glob(os.path.join(ROOT, "src", "leibniz_rb", "*.py"))):
    with open(_path, encoding="utf-8") as _fh:
        TREES[os.path.basename(_path)[:-3]] = ast.parse(_fh.read(), _path)


def units(tree, module):
    """(qualified name, node) per function, method and other statement."""
    for top in tree.body:
        prefix, body = module, [top]
        if isinstance(top, ast.ClassDef):
            prefix, body = module + "." + top.name, top.body
        for node in body:
            yield (prefix + "." + node.name if isinstance(node, ast.FunctionDef)
                   else prefix), node


def flagged(rule, trees):
    """The qualified names in the rule's scope with a node it matches."""
    return {name for module, tree in trees.items()
            for name, node in units(tree, module)
            if rule.scope(name, node) and any(map(rule.match, ast.walk(node)))}


ROUTES = {"derived_bracket_explicit", "differential_d_explicit",
          "derived_bracket_lifted", "differential_d_lifted"}


def _names_route(node):
    return (isinstance(node, ast.Name) and node.id in ROUTES
            or isinstance(node, ast.Attribute) and node.attr in ROUTES
            or isinstance(node, ast.alias) and node.name in ROUTES
            or isinstance(node, ast.Constant) and node.value in ROUTES)


def _forks(node):
    """A comparison of a characteristic with 2, or a call of ``.half``."""
    if isinstance(node, ast.Compare):
        ops = [node.left] + node.comparators
        return (any(isinstance(n, ast.Attribute) and n.attr == "characteristic"
                    for n in ops)
                and any(isinstance(n, ast.Constant) and n.value == 2
                        for n in ops))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "half")


def _functions(name, node):
    return isinstance(node, ast.FunctionDef)


Rule = namedtuple("Rule", "name match scope allowed sample sees")
ALL = lambda name, node: True

RULES = [
    Rule("no-assert", lambda n: isinstance(n, ast.Assert), ALL, set(),
         "def f(x):\n    assert x\nclass C:\n    assert True\n",
         {"m.f", "m.C"}),
    Rule("switches",
         lambda n: isinstance(n, ast.arg) and n.arg in ("cross_check", "validate"),
         _functions,
         # the dgla-cross benchmark passes cross_check=True; any other value
         # is refused, so the keyword turns no route off and can go once the
         # benchmark stops passing it
         {"graded.check_dgla"},
         "def f(a, cross_check=True):\n    pass\n"
         "class C:\n    def g(self, *, validate=False):\n        pass\n"
         "def h(a, checked=True):\n    pass\n",
         {"m.f", "m.C.g"}),
    Rule("dense-views",
         lambda n: isinstance(n, ast.Attribute) and n.attr in (
             "c", "left", "right", "dense", "dense_rows"),
         lambda name, node: _functions(name, node)
         and "_Store" not in name.split("."),
         {
             # the manifest map matrix and the manifest writer
             "manifest._build", "manifest._parts",
             # the CLI report writes each nonzero row with its dense
             # coefficients
             "cli._tensor_report",
             # the per-basis accessors that the composed reference
             # validators read
             "core.LeibnizAlgebra.bracket_basis", "core.ActionPair.left_basis",
             "core.ActionPair.right_basis",
         },
         "def f(a):\n    return a.c\n"
         "class _Store:\n    def dense(self):\n        return self.dense_rows\n"
         "class C:\n    c = property(lambda self: self.c_nz.dense())\n"
         "    def g(self, d):\n        return d.actions.left_nz\n"
         "    def h(self, d):\n        return d.actions.right\n",
         {"m.f", "m.C.h"}),
    Rule("single-route", _names_route,
         lambda name, node: name.split(".")[0] != "graded", set(),
         "from .graded import derived_bracket_explicit\n"
         "def f(d, p):\n"
         "    return graded.differential_d_lifted(d, 1, p)\n"
         "def g(d, p):\n"
         "    return getattr(graded, 'derived_bracket_lifted')(d, p, p)\n"
         "class C:\n"
         "    def h(self, d, p):\n"
         "        return differential_d_explicit(d, 1, p)\n"
         "def k(d, p):\n"
         "    return graded.derived_bracket(d, p, p)\n",
         {"m", "m.f", "m.g", "m.C.h"}),
    Rule("one-mc-path", _forks, ALL, set(),
         "def a(fld):\n    if fld.characteristic == 2:\n        pass\n"
         "def b(d):\n    return 2 != d.field.characteristic\n"
         "def c(out, fld):\n    return out.scale(fld.half())\n"
         "def e(fld, p):\n    return fld.characteristic in (0, 3) or p == 2\n",
         {"m.a", "m.b", "m.c"}),
]


@pytest.mark.parametrize("rule", RULES, ids=[r.name for r in RULES])
def test_library_keeps_the_rule(rule):
    assert len(TREES) > 1 and "graded" in TREES
    found = flagged(rule, TREES)
    assert found == rule.allowed, "rule %s: %s" % (
        rule.name, ", ".join(sorted(found ^ rule.allowed)))


@pytest.mark.parametrize("rule", RULES, ids=[r.name for r in RULES])
def test_rule_flags_its_sample(rule):
    assert flagged(rule, {"m": ast.parse(rule.sample)}) == rule.sees
