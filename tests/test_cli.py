import io
import os
import shutil
import subprocess
import sys
import time

import pytest

import leibniz_rb
from leibniz_rb.cli import build_parser, run_command
from golden_cases import CASES, GOLDEN_DIR, ROOT, run_case

MANIFEST = os.path.join(ROOT, "manifests", "dim2-nonlie.lra")


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "leibniz_rb.cli"] + argv,
                          cwd=cwd, capture_output=True, text=True)


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".rpt"),
              encoding="utf-8") as fh:
        text = fh.read()
    first, _, rest = text.partition("\n")
    return int(first.split()[1]), rest


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_outputs(name, argv):
    code, out = run_case(argv)
    want_code, want_out = _golden(name)
    assert (code, out) == (want_code, want_out)


@pytest.mark.parametrize("name,argv",
                         [c for c in CASES
                          if c[0] in ("cohomology-id", "search-gf5",
                                      "rigidity-zz", "dgla-dim2")],
                         ids=["cohomology-id", "search-gf5", "rigidity-zz",
                              "dgla-dim2"])
def test_jobs_flag_does_not_change_output(name, argv):
    want = run_case(argv)
    for jobs in ("2", "4"):
        assert run_case(argv, extra=("--jobs", jobs)) == want


def test_exit_code_usage_errors(tmp_path):
    r = _run(["validate", "does-not-exist.lra"])
    assert r.returncode == 2
    bad = tmp_path / "bad.lra"
    bad.write_text("field gf 4\n")
    r = _run(["validate", str(bad)])
    assert r.returncode == 2
    assert "line 1" in (r.stderr + r.stdout)


def test_non_utf8_manifest_is_usage_error(tmp_path):
    bad = tmp_path / "bad.lra"
    bad.write_bytes(b"\xff\xfe algebra g dim 2\n")
    r = _run(["validate", str(bad)])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "UTF-8" in r.stderr
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["cohomology", MANIFEST, "--operator", "id", "--max-degree", "-1"],
    ["dgla-check", MANIFEST, "--samples", "-1"],
    ["search", MANIFEST, "--field", "gf 3", "--cap", "-5"],
    ["validate", MANIFEST, "--jobs", "0"],
    ["validate", MANIFEST, "--jobs", "-3"],
], ids=["max-degree", "samples", "cap", "jobs-0", "jobs-negative"])
def test_negative_counts_are_usage_errors(argv):
    r = _run(argv)
    assert r.returncode == 2
    assert "must be at least" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ["cohomology", MANIFEST, "--max-degree", "-1"],
    ["no-such-command", MANIFEST],
    ["validate"],
    ["validate", MANIFEST, "--no-such-flag"],
], ids=["bad-value", "unknown-command", "missing-manifest", "unknown-flag"])
def test_usage_error_is_one_line_on_err_stream(argv, capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run_command(argv, out=out, err=err) == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("leibniz-rb: error: ")
    assert out.getvalue() == ""
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_stdout_with_exit_0():
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["-h"], out=out, err=err) == 0
    assert out.getvalue().startswith("usage: leibniz-rb")
    assert err.getvalue() == ""
    r = _run(["--help"])
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("usage: leibniz-rb")


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_goldens_in_one_process_share_one_parser(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert build_parser() is build_parser()
    for name, argv in CASES + CASES[::-1]:
        code, out, _ = _in_process(argv)
        with open(os.path.join(GOLDEN_DIR, name + ".rpt"), "rb") as fh:
            want = fh.read()
        assert ("exit %d\n" % code + out).encode("utf-8") == want, name


def test_nothing_leaks_from_one_call_to_the_next(monkeypatch):
    monkeypatch.chdir(ROOT)
    cases = dict(CASES)
    want = _golden("cohomology-id") + ("",)
    bad = _in_process(["validate", MANIFEST, "--no-such-flag"])
    assert bad[:2] == (2, "") and len(bad[2].splitlines()) == 1
    assert bad[2].startswith("leibniz-rb: error: ")
    # a non-default --max-degree must not become the next call's default
    assert _in_process(cases["cohomology-id"] + ["--max-degree", "3"])[0] == 0
    assert _in_process(cases["cohomology-id"]) == want
    code, out, err = _in_process(["-h"])
    assert (code, err) == (0, "") and out.startswith("usage: leibniz-rb")
    assert _in_process(cases["cohomology-id"]) == want


def test_parser_is_not_built_at_import():
    r = subprocess.run(
        [sys.executable, "-c", "import leibniz_rb.cli as c; "
         "print(c.build_parser.cache_info().currsize)"],
        cwd=ROOT, capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "0\n")


def test_characteristic_two_is_usage_error():
    r = _run(["obstruct", os.path.join(ROOT, "manifests",
                                       "obstructed-deformation.lra"),
              "--actions", "act", "--field", "gf 2"])
    assert r.returncode == 2
    assert r.stderr == "error: 1/2 is undefined over GF(2)\n"


def test_cohomology_cap_refuses_before_work():
    # dim C^13 = 16,384 is within the cap; delta_12 has 16,384 x 8,192 cells
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    code = run_command(["cohomology", MANIFEST, "--operator", "id",
                        "--max-degree", "12"], out=out, err=err)
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("manifest,select", [
    (os.path.join(ROOT, "manifests", "heisenberg-ideal.lra"),
     ["--actions", "ideal", "--operator", "incl"]),
    ("algebra g dim 2\nalgebra h dim 0\nactions act on g h\n",
     ["--actions", "act", "--operator", "zero", "--weight", "0"]),
    (MANIFEST, ["--operator", "id"]),
], ids=["dim-h-1", "dim-h-0", "dim-h-2"])
def test_cohomology_cap_bounds_the_degree(manifest, select, tmp_path):
    # with dim h <= 1 every delta has at most dim g x dim g cells, so the
    # refusal must come from rows x terms x arity, before any row is built
    if not manifest.endswith(".lra"):
        path = tmp_path / "h0.lra"
        path.write_text("field rational\n" + manifest)
        manifest = str(path)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    code = run_command(["cohomology", manifest, "--max-degree", "99999999"]
                       + select, out=out, err=err)
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: delta_99999999: ")
    assert len(err.getvalue().splitlines()) == 1


def test_exit_code_math_failure():
    r = _run(["check-rbo", MANIFEST, "--operator", "id", "--weight", "1"])
    assert r.returncode == 1


@pytest.mark.parametrize("operator", ["zero", "t"])
def test_operator_into_zero_dim_space(operator, tmp_path):
    # T: g -> z with dim z = 0 is the 0x2 matrix, not 0x0
    path = tmp_path / "z0.lra"
    path.write_text("field rational\nalgebra g dim 2\nalgebra z dim 0\n"
                    "actions act on z g\nmap t from g to z\n")
    out, err = io.StringIO(), io.StringIO()
    code = run_command(["check-rbo", str(path), "--actions", "act",
                        "--operator", operator, "--weight", "0"],
                       out=out, err=err)
    assert (code, err.getvalue()) == (0, "")
    assert "weighted-relative-rbo: valid" in out.getvalue()


@pytest.mark.parametrize("head", [
    "algebra g dim 0\n",
    "algebra g dim 0\nalgebra h dim 2\nactions act on g h\n",
    "algebra g dim 2\nalgebra h dim 0\nactions act on g h\n",
], ids=["adjoint", "relative-g0", "relative-h0"])
def test_search_with_no_cells_yields_the_empty_operator(head, tmp_path):
    # dim g * dim h = 0 cells: exactly one candidate, the empty operator
    path = tmp_path / "zero.lra"
    path.write_text("field gf 3\n" + head + "scalar lambda 0\n")
    argv = ["search", str(path)] + (["--actions", "act"] if "act" in head
                                    else [])
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == "operator: \ncount: 1\nstatus: pass\n"


@pytest.mark.parametrize("head,rows", [
    ("algebra g dim 0\n", ["c 0 z 0 b 0 h 0"] * 4),
    ("algebra g dim 0\nalgebra h dim 2\nactions act on g h\n",
     ["c 0 z 0 b 0 h 0"] * 4),
    ("algebra g dim 2\nalgebra h dim 0\nactions act on g h\n",
     ["c 2 z 2 b 0 h 2"] + ["c 0 z 0 b 0 h 0"] * 3),
], ids=["adjoint", "relative-g0", "relative-h0"])
def test_cohomology_of_zero_dimensional_contexts(head, rows, tmp_path):
    # every delta has an empty side: no rows, no columns or both
    path = tmp_path / "zero.lra"
    path.write_text("field rational\n" + head + "scalar lambda 0\n")
    argv = ["cohomology", str(path), "--operator", "zero", "--max-degree",
            "3", "--format", "machine"]
    argv += ["--actions", "act"] if "act" in head else []
    out, err = io.StringIO(), io.StringIO()
    assert (run_command(argv, out=out, err=err), err.getvalue()) == (0, "")
    want = ["degree %d %s" % (n, row) for n, row in enumerate(rows)]
    assert out.getvalue().splitlines()[2:] == want + ["status pass"]


DEFORMATION = ("algebra g dim 2\nbracket g e1 e1 -> 1 e2\n"
               "map t0 from g to g\nmap t1 from g to g\n"
               "entry t1 e1 -> 1 e1\n%s"
               "deformation d base t0 coeffs t1\nscalar lambda 1\n")


@pytest.mark.parametrize("field", ["gf 2", "gf 3", "gf 5", "rational"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "failing"])
def test_deform_check_in_every_characteristic(field, valid, tmp_path):
    # T_1 = id breaks the order-1 equation at (e1, e1); T_1 = e1 e1^* keeps
    # it, since T_1 e2 = 0.  Over GF(2) the dgLa form, which needs 1/2, is
    # not a cross-check, and the direct verdict stands alone.
    path = tmp_path / "defm.lra"
    path.write_text("field gf 2\n" + DEFORMATION
                    % ("" if valid else "entry t1 e2 -> 1 e2\n"))
    out, err = io.StringIO(), io.StringIO()
    code = run_command(["deform-check", str(path), "--field", field],
                       out=out, err=err)
    assert err.getvalue() == ""
    if valid:
        assert code == 0 and "deformation: valid" in out.getvalue()
    else:
        assert code == 1
        assert "  deformation-equation at (1, 0, 0)\n" in out.getvalue()


def test_field_override():
    r = _run(["validate", MANIFEST, "--field", "gf 7", "--format", "machine"])
    assert r.returncode == 0
    assert "status pass" in r.stdout


@pytest.mark.parametrize("head", ["field rational\n", "# no field line\n"],
                         ids=["replaced", "inserted"])
def test_field_override_keeps_file_line_numbers(head, tmp_path):
    path = tmp_path / "bad.lra"
    path.write_text(head + "algebra g dim 2\nbracket g e1 e9 -> 1 e1\n")
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["validate", str(path), "--field", "gf 5"],
                       out=out, err=err) == 2
    assert err.getvalue() == ("error: line 3: basis index e9 out of range "
                              "for g (dim 2)\n")


def test_wrong_field_is_usage_error():
    r = _run(["rigidity", MANIFEST, "--operator", "id", "--weight", "-1"])
    assert r.returncode == 2


def test_text_and_machine_formats_agree_on_status():
    text = _run(["check-rbo", MANIFEST, "--operator", "id"])
    machine = _run(["check-rbo", MANIFEST, "--operator", "id",
                    "--format", "machine"])
    assert text.returncode == machine.returncode == 0
    assert machine.stdout.splitlines()[0] == "schema leibniz-rb-report 1"


def test_weight_defaults_to_manifest_lambda():
    explicit = _run(["check-rbo", MANIFEST, "--operator", "id",
                     "--weight", "-1", "--format", "machine"])
    implicit = _run(["check-rbo", MANIFEST, "--operator", "id",
                     "--format", "machine"])
    assert explicit.stdout == implicit.stdout
    assert implicit.returncode == 0


def _run_entry_point(argv):
    """Run the declared ``leibniz-rb`` entry point as its wrapper would.

    pip's generated wrapper imports the ``[project.scripts]`` target, sets
    ``sys.argv`` and calls ``sys.exit(main())``.  This does the same in a
    fresh interpreter, so no installed package is needed.  The child's
    ``PYTHONPATH`` starts with the directory this process imported
    ``leibniz_rb`` from, so it runs the code under test.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "leibniz-rb" in scripts
    module, _, attr = scripts["leibniz-rb"].partition(":")
    code = ("import sys\n"
            "from %s import %s as main\n"
            "sys.argv = %r\n"
            "sys.exit(main())\n" % (module, attr, ["leibniz-rb"] + argv))
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        leibniz_rb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def test_console_script_entrypoint():
    r = _run_entry_point(["validate", MANIFEST])
    assert r.returncode == 0, r.stderr
    assert "status: pass" in r.stdout
    assert _run_entry_point(["validate", "does-not-exist.lra"]).returncode == 2


@pytest.mark.skipif(shutil.which("leibniz-rb") is None,
                    reason="the leibniz-rb script is not on PATH")
def test_installed_console_script():
    r = subprocess.run(["leibniz-rb", "validate", MANIFEST],
                       capture_output=True, text=True)
    assert r.returncode == 0
