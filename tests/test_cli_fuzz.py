"""CLI fuzz test: random argv and manifest bytes end in a documented way.

Every run must exit 0, 1 or 2 without an uncaught exception.  A run that
fails either prints its report (exit 1, a mathematical failure) or writes
exactly one ``error:`` line and no report.  Dimensions stay small because
mutations only draw numbers up to 3, and ``--cap``, ``--samples`` and
``--max-degree`` are always small, so no example runs unbounded.
"""

import io
import os
import tempfile
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from leibniz_rb.cli import COMMANDS, run_command
from golden_cases import ROOT

# each shipped manifest with the flags that select its context and operator
SELECT = {
    "dim2-nonlie.lra": ["--operator", "id"],
    "gf5-abelian-pair.lra": ["--actions", "act", "--operator", "zz"],
    "heisenberg-ideal.lra": ["--actions", "ideal", "--operator", "incl"],
    "obstructed-deformation.lra": ["--actions", "act"],
    "post-heisenberg.lra": [],
}


@lru_cache(maxsize=None)
def seeds():
    """(text, selecting flags) of each shipped manifest."""
    out = []
    for name in sorted(SELECT):
        with open(os.path.join(ROOT, "manifests", name),
                  encoding="utf-8") as fh:
            out.append((fh.read(), SELECT[name]))
    return out


# tokens a mutation may write into a manifest line
VOCAB = ["0", "1", "2", "3", "-1", "1/2", "0/0", "x", "e0", "e1", "e2",
         "e3", "e4", "->", "#", "g", "h", "z", "P", "act", "dim", "field",
         "gf", "rational", "algebra", "bracket", "actions", "on", "left",
         "right", "map", "from", "to", "entry", "scalar", "lambda",
         "deformation", "base", "coeffs", "post", "pleft", "pright",
         "pbracket", "\t", "é"]

FLAGS = {
    "--field": ["rational", "gf 5", "gf 3", "gf 2", "gf 4", "q"],
    "--algebra": ["g", "h", "z", "nope"],
    "--actions": ["act", "ideal", "nope"],
    "--operator": ["id", "zero", "zz", "incl", "t1", "nope"],
    "--weight": ["-1", "0", "1", "1/2", "lambda", "x"],
    "--deformation": ["frozen", "nope"],
    "--post": ["P", "nope"],
    "--element": ["0,1", "1", "1,0,0", "a,b", "1/0,1"],
    "--format": ["text", "machine", "xml"],
    "--jobs": ["1", "2", "0"],
}
# always present, so that no example uses the default cap or sample count
BOUNDED = {
    "--max-degree": ["0", "1", "2"],
    "--cap": ["0", "1", "40", "400"],
    "--samples": ["0", "1"],
}


@st.composite
def mutated(draw, text):
    """Up to four line or token edits of a manifest, drawn from VOCAB."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "dup", "replace", "delete",
                                   "insert"]))
        toks = lines[k].split(" ")
        if op == "drop":
            del lines[k]
            continue
        if op == "dup":
            lines.insert(k, lines[k])
            continue
        j = draw(st.integers(0, len(toks) - 1))
        if op == "replace":
            toks[j] = draw(st.sampled_from(VOCAB))
        elif op == "delete":
            del toks[j]
        else:
            toks.insert(j, draw(st.sampled_from(VOCAB)))
        lines[k] = " ".join(toks)
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    text, select = draw(st.sampled_from(seeds()))
    data = draw(st.one_of(mutated(text), st.just(text.encode("utf-8")),
                          st.binary(max_size=120)))
    flags = list(select) if draw(st.booleans()) else []
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=2,
                              unique=True)):
        flags += [flag, draw(st.sampled_from(FLAGS[flag]))]
    for flag, values in sorted(BOUNDED.items()):
        flags += [flag, draw(st.sampled_from(values))]
    return command, data, flags


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_cli_fuzz_ends_with_a_documented_exit(case):
    command, data, flags = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.lra")
        with open(path, "wb") as fh:
            fh.write(data)
        code = run_command([command, path] + flags, out=out, err=err)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if lines:
        # one classified error line, no report
        assert code != 0 and len(lines) == 1, lines
        assert "error:" in lines[0] and "internal error" not in lines[0], lines
        assert out.getvalue() == ""
    else:
        # a report: pass (0) or a mathematical failure (1)
        assert code in (0, 1) and out.getvalue()
