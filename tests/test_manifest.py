import io
import time

import pytest
from hypothesis import given, settings, strategies as st

import manifest_oracle
from leibniz_rb.cli import run_command
from leibniz_rb.core import validate_leibniz, validate_leibniz_g_rep
from leibniz_rb.errors import ManifestError, ResourceLimit
from leibniz_rb.manifest import (MAX_TENSOR_CELLS, load_manifest,
                                 parse_manifest, render_manifest)

from conftest import dim2_nonlie
from test_cli_fuzz import mutated, seeds

SAMPLE = """\
# effusive commentary that the parser must skip
field rational

algebra g dim 2
bracket g e1 e1 -> 1 e2
algebra h dim 1
actions act on g h
left act e1 e1 -> 2 e1
right act e1 e2 -> -1/3 e1
map t from h to g
entry t e1 -> 1 e1 1 e2
scalar lambda -1
"""


def test_parse_sample(Q):
    m = parse_manifest(SAMPLE)
    assert m.algebras["g"] == dim2_nonlie(Q)
    assert m.algebras["h"].dim == 1
    gname, hname, pair = m.actions["act"]
    assert (gname, hname) == ("g", "h")
    assert pair.left[0][0][0] == Q.coerce(2)
    assert pair.right[0][1][0] == Q.parse("-1/3")
    src, dst, mat = m.maps["t"]
    assert (src, dst) == ("h", "g")
    assert mat.col(0) == [Q.one, Q.one]
    assert m.scalars["lambda"] == Q.coerce(-1)


def test_render_roundtrip():
    m = parse_manifest(SAMPLE)
    text = render_manifest(m)
    assert parse_manifest(text) == m
    # canonical form is a fixed point
    assert render_manifest(parse_manifest(text)) == text


def test_gf_field_and_tokens():
    text = "field gf 5\nalgebra g dim 2\nbracket g e1 e2 -> 3 e1 4 e2\n"
    m = parse_manifest(text)
    fld = m.field
    assert fld.p == 5
    assert m.algebras["g"].bracket_basis(0, 1) == [fld.coerce(3),
                                                   fld.coerce(4)]
    assert parse_manifest(render_manifest(m)) == m


def test_grep_helper(Q):
    m = parse_manifest(SAMPLE)
    d = m.grep("act")
    assert d.g == m.algebras["g"] and d.h == m.algebras["h"]


def test_repeated_bracket_lines_accumulate(Q):
    text = ("field rational\nalgebra g dim 1\n"
            "bracket g e1 e1 -> 1 e1\nbracket g e1 e1 -> 2 e1\n")
    m = parse_manifest(text)
    assert m.algebras["g"].bracket_basis(0, 0) == [Q.coerce(3)]


@pytest.mark.parametrize("text,fragment", [
    ("algebra g dim 2\n", "field must be declared first"),
    ("field rational\nfield rational\n", "duplicate field"),
    ("field gf 4\n", ""),
    ("field rational\nalgebra g dim 2\nalgebra g dim 2\n", "duplicate"),
    ("field rational\nbracket g e1 e1 -> 1 e1\n", "unknown algebra"),
    ("field rational\nalgebra g dim 2\nbracket g e1 e9 -> 1 e1\n", ""),
    ("field rational\nalgebra g dim 2\nbracket g e1 e2 1 e1\n",
     "missing '->'"),
    ("field rational\nalgebra g dim 2\nbracket g e1 e2 ->\n",
     "coefficient/basis pairs"),
    ("field rational\nfrobnicate x\n", "unknown directive"),
    ("field rational\nscalar s 1\nscalar s 2\n", "duplicate scalar"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    if fragment:
        assert fragment in str(err.value)
    assert err.value.line is None or err.value.line >= 0


def test_shipped_manifests_parse_and_validate():
    import glob
    import os
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                          "..", "manifests", "*.lra")))
    assert paths, "no shipped manifests found"
    for path in paths:
        m = load_manifest(path)
        for a in m.algebras.values():
            assert validate_leibniz(a).ok
        for name in m.actions:
            assert validate_leibniz_g_rep(m.grep(name)).ok
        assert parse_manifest(render_manifest(m)) == m


def test_deformation_and_post_directives(gf5):
    text = """field gf 5
algebra g dim 1
algebra h dim 1
actions act on g h
left act e1 e1 -> 1 e1
map t0 from h to g
map t1 from h to g
entry t1 e1 -> 1 e1
deformation D base t0 coeffs t0 t1
post P dim 1
pleft P e1 e1 -> 2 e1
"""
    m = parse_manifest(text)
    base, coeffs = m.deformations["D"]
    assert base == "t0" and coeffs == ["t0", "t1"]
    assert m.posts["P"].left[0][0][0] == gf5.coerce(2)
    assert parse_manifest(render_manifest(m)) == m


@pytest.mark.parametrize("decl", ["algebra g dim 100000000",
                                  "post P dim 100000000",
                                  "algebra g dim 101"])
def test_huge_dimension_is_refused_before_allocation(decl, tmp_path):
    text = "field rational\nalgebra a dim 1\n%s\n" % decl
    with pytest.raises(ResourceLimit, match="line 3: dim"):
        parse_manifest(text)
    bad = tmp_path / "huge.lra"
    bad.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["validate", str(bad)], out=out, err=err) == 2
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().startswith("error: line 3: dim ")


def test_largest_dimension_within_budget_parses():
    n = round(MAX_TENSOR_CELLS ** (1 / 3))
    assert n ** 3 <= MAX_TENSOR_CELLS < (n + 1) ** 3
    m = parse_manifest("field gf 2\npost P dim 2\nalgebra g dim %d\n" % n)
    assert m.algebras["g"].dim == n


def test_total_tensor_cells_are_bounded_before_allocation(tmp_path):
    # each declaration is within MAX_TENSOR_CELLS; together they are not
    text = "field rational\n" + "".join("algebra g%d dim 100\n" % k
                                        for k in range(5))
    with pytest.raises(ResourceLimit, match="^line 6: "):
        parse_manifest(text)
    bad = tmp_path / "wide.lra"
    bad.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    assert run_command(["validate", str(bad)], out=out, err=err) == 2
    assert time.perf_counter() - t0 < 0.5
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().startswith("error: line 6: ")


def test_non_utf8_file_is_a_manifest_error(tmp_path):
    bad = tmp_path / "bad.lra"
    bad.write_bytes(b"field rational\n\xff\n")
    with pytest.raises(ManifestError, match="not UTF-8 text"):
        load_manifest(str(bad))


def test_field_override_replaces_or_prepends_the_field(tmp_path):
    path = tmp_path / "m.lra"
    path.write_text(SAMPLE)
    assert load_manifest(str(path), field="gf 5").field_spec == "gf 5"
    path.write_text(SAMPLE.replace("field rational", "# none"))
    m = load_manifest(str(path), field="gf 5")
    assert m.actions["act"][2].right[0][1][0] == m.field.parse("-1/3")
    # the inserted field line is not in the file, so its error has no line
    with pytest.raises(ManifestError, match="^PrimeField parameter must be"):
        load_manifest(str(path), field="gf 4")


@st.composite
def manifests(draw):
    """Well-formed manifest text using every directive, entries shuffled."""
    spec = draw(st.sampled_from(["rational", "gf 2", "gf 3", "gf 5"]))
    coeff = st.sampled_from(["1", "-1", "2", "1/2", "-3/4", "5/3"]
                            if spec == "rational" else ["1", "2", "-1", "7"])
    decls, entries = [], []

    def fill(kw, name, lhs_dims, rhs_dim):
        if rhs_dim == 0 or 0 in lhs_dims:
            return
        for _ in range(draw(st.integers(0, 3))):
            lhs = " ".join("e%d" % draw(st.integers(1, n)) for n in lhs_dims)
            rhs = " ".join("%s e%d" % (draw(coeff),
                                       draw(st.integers(1, rhs_dim)))
                           for _ in range(draw(st.integers(1, 2))))
            entries.append("%s %s %s -> %s" % (kw, name, lhs, rhs))

    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    for k, n in enumerate(dims):
        decls.append("algebra a%d dim %d" % (k, n))
        fill("bracket", "a%d" % k, (n, n), n)
    g = draw(st.integers(0, len(dims) - 1))
    h = draw(st.integers(0, len(dims) - 1))
    ng, nh = dims[g], dims[h]
    decls.append("actions act on a%d a%d" % (g, h))
    fill("left", "act", (ng, nh), nh)
    fill("right", "act", (nh, ng), nh)
    for name in ("t0", "t1", "t2"):
        decls.append("map %s from a%d to a%d" % (name, h, g))
        fill("entry", name, (nh,), ng)
    decls.append("scalar lambda %s" % draw(coeff))
    decls.append("deformation D base t0 coeffs " + " ".join(
        draw(st.lists(st.sampled_from(["t1", "t2"]), max_size=2))))
    n = draw(st.integers(0, 3))
    decls.append("post P dim %d" % n)
    for kw in ("pleft", "pright", "pbracket"):
        fill(kw, "P", (n, n), n)
    entries = draw(st.permutations(entries))
    return "\n".join(["field " + spec] + decls + entries) + "\n"


@settings(max_examples=150, deadline=None)
@given(manifests())
def test_render_roundtrip_property(text):
    m = parse_manifest(text)
    out = render_manifest(m)
    assert parse_manifest(out) == m
    assert render_manifest(parse_manifest(out)) == out
    assert out == manifest_oracle.render_manifest(
        manifest_oracle.parse_manifest(text))


def _outcome(parse, text):
    """A parse result as comparable data: the objects, or the error."""
    try:
        m = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return (m.field_spec, m.algebras, m.actions, m.maps, m.scalars,
            m.deformations, m.posts, m._order)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(seeds()).flatmap(lambda seed: mutated(seed[0])))
def test_parser_matches_reference_parser(data):
    # mutations write numbers up to 3, so the total tensor-cell budget,
    # which the reference parser lacks, never binds here
    text = data.decode("utf-8")
    assert (_outcome(parse_manifest, text)
            == _outcome(manifest_oracle.parse_manifest, text))
