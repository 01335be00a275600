"""Each one-line mutant of the library in ``mutants.MUTANTS`` is caught.

Classic mutation analysis (DeMillo, Lipton and Sayward, IEEE Computer
1978), in process: the row's line occurs exactly once in its function's
source and the row's call passes; the mutated source is executed in the
module's globals, every ``leibniz_rb`` module attribute bound to the
original (``from .core import leibniz_differential`` gives ``graded`` and
``cohomology`` bindings of their own), or the class attribute of a method,
is rebound to the mutant, and the call must raise the row's exception.
"""

import importlib
import inspect
import sys
import textwrap
from collections import Counter

import pytest

pytest.register_assert_rewrite("mutants")
from mutants import MUTANTS  # noqa: E402

_count, IDS = Counter(), []
for _m in MUTANTS:
    _count[_m[:2]] += 1
    IDS.append("%s.%s-%d" % (_m.module, _m.function, _count[_m[:2]]))


@pytest.mark.parametrize("row", MUTANTS, ids=IDS)
def test_mutant_is_caught(row, monkeypatch):
    module = importlib.import_module("leibniz_rb." + row.module)
    *cls, name = row.function.split(".")
    owner = getattr(module, cls[0]) if cls else module
    original = vars(owner)[name]
    src = textwrap.dedent(inspect.getsource(getattr(original, "func",
                                                    original)))
    assert src.count(row.line) == 1, row.line
    row.call()
    # the module's own binding of name is restored, or removed, on undo
    monkeypatch.setattr(module, name, getattr(module, name, None),
                        raising=False)
    exec(src.replace(row.line, row.mutant), vars(module))
    mutant = vars(module)[name]
    if cls:
        monkeypatch.setattr(owner, name, mutant)
    for mod in [m for k, m in sys.modules.items() if k.startswith("leibniz_rb")]:
        for attr in [a for a, v in vars(mod).items() if v is original]:
            monkeypatch.setattr(mod, attr, mutant)
    with pytest.raises(row.raises):
        row.call()
