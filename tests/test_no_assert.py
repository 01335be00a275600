"""No check in the library may rest on ``assert``: ``python -O`` strips it."""

import ast
import glob
import os

from golden_cases import ROOT


def test_library_has_no_assert_statements():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "leibniz_rb", "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
