"""Which library functions may take a ``cross_check`` or ``validate`` switch.

Each dual-route quantity always runs both of its routes, and each input
check always runs: code that needs one route calls it by name
(``derived_bracket_explicit``, ``differential_d_explicit``).  A parameter
that could turn a second route or a check off is pinned here, so a new one
has to be added to the allow-list, with its reason, on purpose.
"""

import ast
import glob
import os

from golden_cases import ROOT

ALLOWED = {
    # the dgla-cross benchmark passes cross_check=True; any other value is
    # refused, so the keyword turns no route off and can go once the
    # benchmark stops passing it
    "graded.check_dgla",
}

SWITCHES = {"cross_check", "validate"}


def _switched(tree, module):
    """Qualified names of the functions and methods in tree (nested ones
    counted with their outer function) with a parameter in SWITCHES."""
    found = set()
    for top in tree.body:
        funcs = [(module, top)]
        if isinstance(top, ast.ClassDef):
            funcs = [(module + "." + top.name, f) for f in top.body]
        for prefix, f in funcs:
            if isinstance(f, ast.FunctionDef) and any(
                    isinstance(n, ast.arg) and n.arg in SWITCHES
                    for n in ast.walk(f)):
                found.add(prefix + "." + f.name)
    return found


def test_switch_parameters_are_the_allow_list():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "leibniz_rb", "*.py")))
    assert paths
    found = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found |= _switched(tree, os.path.basename(path)[:-3])
    assert found == ALLOWED
