"""The Maurer-Cartan layer has one path in every characteristic.

Its coefficients are halved exactly over ``ZZ`` before the reduction mod
p, so no code in the library divides by 2 in a field or treats
characteristic 2 apart.  The check fails on a comparison of a
``characteristic`` attribute with the constant 2 and on a call of an
attribute named ``half``, so a fork for GF(2) cannot come back unseen.
"""

import ast
import glob
import os

from golden_cases import ROOT


def _is_characteristic(node):
    return isinstance(node, ast.Attribute) and node.attr == "characteristic"


def _is_two(node):
    return isinstance(node, ast.Constant) and node.value == 2


def _forks(tree):
    """Line numbers of the comparisons of a characteristic with 2 and of
    the calls of an attribute named half in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if any(map(_is_characteristic, operands)) \
                    and any(map(_is_two, operands)):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "half":
            found.append(node.lineno)
    return found


def test_the_check_sees_each_fork():
    src = ("if fld.characteristic == 2:\n"
           "    pass\n"
           "x = 2 != d.field.characteristic\n"
           "y = out.scale(fld.half())\n"
           "z = fld.characteristic in (0, 3) or p == 2\n")
    assert _forks(ast.parse(src)) == [1, 3, 4]


def test_no_characteristic_two_fork_in_the_library():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "leibniz_rb", "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), n) for n in _forks(tree)]
    assert found == []
