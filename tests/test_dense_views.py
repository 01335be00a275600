"""Which library functions may read the dense views of the tensor stores.

Every structure tensor is kept once, as a sparse store; ``.c``, ``.left``
and ``.right`` (and ``_Store.dense``/``dense_rows``) build its dense
nested tuples.  Library code works on the stores, so the functions that
still read a dense view are pinned here: a new reader has to be added to
the allow-list on purpose.  ``_Store`` itself, which builds the views, is
not counted.
"""

import ast
import glob
import os

from golden_cases import ROOT

ALLOWED = {
    # the manifest map matrix and the manifest writer
    "manifest._build", "manifest._parts",
    # the CLI report writes each nonzero row with its dense coefficients
    "cli._tensor_report",
    # the per-basis accessors that the composed reference validators read
    "core.LeibnizAlgebra.bracket_basis", "core.ActionPair.left_basis",
    "core.ActionPair.right_basis",
}


VIEWS = ("c", "left", "right", "dense", "dense_rows")


def _readers(tree, module):
    """Qualified names of the functions and methods in tree (nested ones
    counted with their outer function) that touch a dense view."""
    found = set()
    for top in tree.body:
        funcs = [(module, top)]
        if isinstance(top, ast.ClassDef) and top.name != "_Store":
            funcs = [(module + "." + top.name, f) for f in top.body]
        for prefix, f in funcs:
            if isinstance(f, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr in VIEWS
                    for n in ast.walk(f)):
                found.add(prefix + "." + f.name)
    return found


def test_dense_view_readers_are_the_allow_list():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "leibniz_rb", "*.py")))
    assert paths
    found = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found |= _readers(tree, os.path.basename(path)[:-3])
    assert found == ALLOWED
