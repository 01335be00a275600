"""Reference .lra parser for the differential test in test_manifest.py.

This is the hand-written parser that the table-driven one in
``leibniz_rb.manifest`` replaced, kept verbatim apart from its imports:
one parse branch per directive, one dense build block per kind and one
render loop per kind.  It has no cap on the manifest's total size; its
per-declaration dimension error carries its own ``line N:`` prefix.
"""

from leibniz_rb.core import ActionPair, LeibnizAlgebra, LeibnizGRep
from leibniz_rb.errors import ManifestError, ResourceLimit
from leibniz_rb.fields import field_from_spec
from leibniz_rb.linalg import Matrix
from leibniz_rb.postleibniz import PostLeibnizAlgebra

MAX_TENSOR_CELLS = 10 ** 6


class Manifest:
    def __init__(self, field, field_spec):
        self.field = field
        self.field_spec = field_spec
        self.algebras = {}
        self.actions = {}      # name -> (g_name, h_name, ActionPair)
        self.maps = {}         # name -> (src_name, dst_name, Matrix)
        self.scalars = {}
        self.deformations = {}  # name -> (base_map_name, [coeff_names])
        self.posts = {}
        self._order = []       # (kind, name) in declaration order

    def grep(self, name):
        gname, hname, pair = self.actions[name]
        return LeibnizGRep(self.algebras[gname], self.algebras[hname], pair)

    def __eq__(self, other):
        return (isinstance(other, Manifest)
                and self.field_spec == other.field_spec
                and self.algebras == other.algebras
                and self.actions == other.actions
                and self.maps == other.maps
                and self.scalars == other.scalars
                and self.deformations == other.deformations
                and self.posts == other.posts)


def _basis_index(tok, dim, line_no, what):
    if not tok.startswith("e"):
        raise ManifestError("expected basis token, got %r" % tok, line_no)
    try:
        k = int(tok[1:])
    except ValueError:
        raise ManifestError("bad basis token %r" % tok, line_no)
    if not 1 <= k <= dim:
        raise ManifestError("basis index %s out of range for %s (dim %d)"
                            % (tok, what, dim), line_no)
    return k - 1


def _parse_dim(tok, line_no):
    try:
        dim = int(tok)
    except ValueError:
        raise ManifestError("bad dimension %r" % tok, line_no)
    if dim < 0:
        raise ManifestError("negative dimension", line_no)
    if dim ** 3 > MAX_TENSOR_CELLS:
        raise ResourceLimit("line %d: dim %d needs %d tensor cells, over the "
                            "budget of %d" % (line_no, dim, dim ** 3,
                                              MAX_TENSOR_CELLS))
    return dim


def _parse_scalar(field, tok, line_no):
    try:
        return field.parse(tok)
    except Exception:
        raise ManifestError("bad scalar %r" % tok, line_no)


def _parse_rhs(field, toks, dim, line_no, what):
    """`c1 e_i c2 e_j ...` pairs into a sparse {index: coeff} dict."""
    if len(toks) % 2 != 0 or not toks:
        raise ManifestError("entry right-hand side must be coefficient/basis "
                            "pairs", line_no)
    out = {}
    for c, b in zip(toks[::2], toks[1::2]):
        k = _basis_index(b, dim, line_no, what)
        out[k] = out.get(k, field.zero) + _parse_scalar(field, c, line_no)
    return out


def parse_manifest(text):
    field = None
    spec = None
    # staging: entries are accumulated, objects built at the end
    alg_dims, alg_entries = {}, {}
    act_decl, act_left, act_right = {}, {}, {}
    map_decl, map_entries = {}, {}
    scalars = {}
    deformations = {}
    post_dims, post_entries = {}, {}
    order = []

    def split_arrow(toks, line_no):
        if "->" not in toks:
            raise ManifestError("missing '->'", line_no)
        k = toks.index("->")
        return toks[:k], toks[k + 1:]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == "field":
            if field is not None:
                raise ManifestError("duplicate field declaration", line_no)
            spec = " ".join(toks[1:])
            try:
                field = field_from_spec(spec)
            except Exception as exc:
                raise ManifestError(str(exc), line_no)
        elif field is None:
            raise ManifestError("field must be declared first", line_no)
        elif kw == "algebra":
            if len(toks) != 4 or toks[2] != "dim":
                raise ManifestError("expected: algebra NAME dim N", line_no)
            name = toks[1]
            if name in alg_dims:
                raise ManifestError("duplicate algebra %r" % name, line_no)
            alg_dims[name] = _parse_dim(toks[3], line_no)
            alg_entries[name] = {}
            order.append(("algebra", name))
        elif kw == "bracket":
            name = toks[1] if len(toks) > 1 else ""
            if name not in alg_dims:
                raise ManifestError("unknown algebra %r" % name, line_no)
            lhs, rhs = split_arrow(toks[2:], line_no)
            if len(lhs) != 2:
                raise ManifestError("bracket takes two basis tokens", line_no)
            dim = alg_dims[name]
            i = _basis_index(lhs[0], dim, line_no, name)
            j = _basis_index(lhs[1], dim, line_no, name)
            for k, c in _parse_rhs(field, rhs, dim, line_no, name).items():
                alg_entries[name][(i, j, k)] = \
                    alg_entries[name].get((i, j, k), field.zero) + c
        elif kw == "actions":
            if len(toks) != 5 or toks[2] != "on":
                raise ManifestError("expected: actions NAME on G H", line_no)
            name = toks[1]
            if name in act_decl:
                raise ManifestError("duplicate actions %r" % name, line_no)
            for nm in toks[3:5]:
                if nm not in alg_dims:
                    raise ManifestError("unknown algebra %r" % nm, line_no)
            act_decl[name] = (toks[3], toks[4])
            act_left[name], act_right[name] = {}, {}
            order.append(("actions", name))
        elif kw in ("left", "right"):
            name = toks[1] if len(toks) > 1 else ""
            if name not in act_decl:
                raise ManifestError("unknown actions %r" % name, line_no)
            gname, hname = act_decl[name]
            ng, nh = alg_dims[gname], alg_dims[hname]
            lhs, rhs = split_arrow(toks[2:], line_no)
            if len(lhs) != 2:
                raise ManifestError("%s takes two basis tokens" % kw, line_no)
            if kw == "left":
                i = _basis_index(lhs[0], ng, line_no, gname)
                a = _basis_index(lhs[1], nh, line_no, hname)
                store, key = act_left[name], (i, a)
            else:
                a = _basis_index(lhs[0], nh, line_no, hname)
                i = _basis_index(lhs[1], ng, line_no, gname)
                store, key = act_right[name], (a, i)
            for b, c in _parse_rhs(field, rhs, nh, line_no, hname).items():
                store[key + (b,)] = store.get(key + (b,), field.zero) + c
        elif kw == "map":
            if len(toks) != 6 or toks[2] != "from" or toks[4] != "to":
                raise ManifestError("expected: map NAME from SRC to DST",
                                    line_no)
            name = toks[1]
            if name in map_decl:
                raise ManifestError("duplicate map %r" % name, line_no)
            for nm in (toks[3], toks[5]):
                if nm not in alg_dims:
                    raise ManifestError("unknown algebra %r" % nm, line_no)
            map_decl[name] = (toks[3], toks[5])
            map_entries[name] = {}
            order.append(("map", name))
        elif kw == "entry":
            name = toks[1] if len(toks) > 1 else ""
            if name not in map_decl:
                raise ManifestError("unknown map %r" % name, line_no)
            src, dst = map_decl[name]
            lhs, rhs = split_arrow(toks[2:], line_no)
            if len(lhs) != 1:
                raise ManifestError("entry takes one basis token", line_no)
            a = _basis_index(lhs[0], alg_dims[src], line_no, src)
            for i, c in _parse_rhs(field, rhs, alg_dims[dst], line_no,
                                   dst).items():
                map_entries[name][(i, a)] = \
                    map_entries[name].get((i, a), field.zero) + c
        elif kw == "scalar":
            if len(toks) != 3:
                raise ManifestError("expected: scalar NAME VALUE", line_no)
            if toks[1] in scalars:
                raise ManifestError("duplicate scalar %r" % toks[1], line_no)
            scalars[toks[1]] = _parse_scalar(field, toks[2], line_no)
            order.append(("scalar", toks[1]))
        elif kw == "deformation":
            if len(toks) < 5 or toks[2] != "base" or toks[4] != "coeffs":
                raise ManifestError(
                    "expected: deformation NAME base MAP coeffs MAPS...",
                    line_no)
            name = toks[1]
            if name in deformations:
                raise ManifestError("duplicate deformation %r" % name, line_no)
            for nm in [toks[3]] + toks[5:]:
                if nm not in map_decl:
                    raise ManifestError("unknown map %r" % nm, line_no)
            deformations[name] = (toks[3], toks[5:])
            order.append(("deformation", name))
        elif kw == "post":
            if len(toks) != 4 or toks[2] != "dim":
                raise ManifestError("expected: post NAME dim N", line_no)
            name = toks[1]
            if name in post_dims:
                raise ManifestError("duplicate post %r" % name, line_no)
            post_dims[name] = _parse_dim(toks[3], line_no)
            post_entries[name] = {"pleft": {}, "pright": {}, "pbracket": {}}
            order.append(("post", name))
        elif kw in ("pleft", "pright", "pbracket"):
            name = toks[1] if len(toks) > 1 else ""
            if name not in post_dims:
                raise ManifestError("unknown post structure %r" % name,
                                    line_no)
            dim = post_dims[name]
            lhs, rhs = split_arrow(toks[2:], line_no)
            if len(lhs) != 2:
                raise ManifestError("%s takes two basis tokens" % kw, line_no)
            i = _basis_index(lhs[0], dim, line_no, name)
            j = _basis_index(lhs[1], dim, line_no, name)
            store = post_entries[name][kw]
            for k, c in _parse_rhs(field, rhs, dim, line_no, name).items():
                store[(i, j, k)] = store.get((i, j, k), field.zero) + c
        else:
            raise ManifestError("unknown directive %r" % kw, line_no)

    if field is None:
        raise ManifestError("manifest declares no field", 0)
    m = Manifest(field, spec)
    m._order = order
    for name, dim in alg_dims.items():
        m.algebras[name] = LeibnizAlgebra.from_entries(field, dim,
                                                       alg_entries[name])
    for name, (gname, hname) in act_decl.items():
        ng, nh = alg_dims[gname], alg_dims[hname]
        left = [[[act_left[name].get((i, a, b), field.zero)
                  for b in range(nh)] for a in range(nh)] for i in range(ng)]
        right = [[[act_right[name].get((a, i, b), field.zero)
                   for b in range(nh)] for i in range(ng)] for a in range(nh)]
        m.actions[name] = (gname, hname,
                           ActionPair(field, ng, nh, left, right))
    for name, (src, dst) in map_decl.items():
        nr, nc = alg_dims[dst], alg_dims[src]
        rows = [[map_entries[name].get((i, a), field.zero)
                 for a in range(nc)] for i in range(nr)]
        m.maps[name] = (src, dst, Matrix(field, rows))
    m.scalars = scalars
    for name, (base, coeffs) in deformations.items():
        shape0 = map_decl[base]
        for nm in coeffs:
            if map_decl[nm] != shape0:
                raise ManifestError(
                    "deformation %r mixes maps of different shapes" % name, 0)
        m.deformations[name] = (base, list(coeffs))
    for name, dim in post_dims.items():
        tensors = []
        for key in ("pleft", "pright", "pbracket"):
            t = [[[post_entries[name][key].get((i, j, k), field.zero)
                   for k in range(dim)] for j in range(dim)]
                 for i in range(dim)]
            tensors.append(t)
        m.posts[name] = PostLeibnizAlgebra(field, dim, *tensors)
    return m


def _rhs_text(field, pairs):
    return " ".join("%s e%d" % (field.format(c), k + 1) for k, c in pairs)


def _tensor_lines(field, kw, name, tensor):
    out = []
    n = len(tensor)
    for i in range(n):
        for j in range(n):
            pairs = [(k, c) for k, c in enumerate(tensor[i][j]) if c]
            if pairs:
                out.append("%s %s e%d e%d -> %s"
                           % (kw, name, i + 1, j + 1,
                              _rhs_text(field, pairs)))
    return out


def render_manifest(m):
    """Canonical text form; stable under parse/render round trips."""
    fld = m.field
    lines = ["field %s" % m.field_spec]
    for kind, name in m._order:
        if kind == "algebra":
            a = m.algebras[name]
            lines.append("algebra %s dim %d" % (name, a.dim))
            lines += _tensor_lines(fld, "bracket", name, a.c)
        elif kind == "actions":
            gname, hname, pair = m.actions[name]
            lines.append("actions %s on %s %s" % (name, gname, hname))
            for i in range(pair.dim_g):
                for a in range(pair.dim_v):
                    pairs = [(b, c) for b, c in enumerate(pair.left[i][a])
                             if c]
                    if pairs:
                        lines.append("left %s e%d e%d -> %s"
                                     % (name, i + 1, a + 1,
                                        _rhs_text(fld, pairs)))
            for a in range(pair.dim_v):
                for i in range(pair.dim_g):
                    pairs = [(b, c) for b, c in enumerate(pair.right[a][i])
                             if c]
                    if pairs:
                        lines.append("right %s e%d e%d -> %s"
                                     % (name, a + 1, i + 1,
                                        _rhs_text(fld, pairs)))
        elif kind == "map":
            src, dst, mat = m.maps[name]
            lines.append("map %s from %s to %s" % (name, src, dst))
            for a in range(mat.ncols):
                pairs = [(i, mat.entry(i, a)) for i in range(mat.nrows)
                         if mat.entry(i, a)]
                if pairs:
                    lines.append("entry %s e%d -> %s"
                                 % (name, a + 1, _rhs_text(fld, pairs)))
        elif kind == "scalar":
            lines.append("scalar %s %s" % (name, fld.format(m.scalars[name])))
        elif kind == "deformation":
            base, coeffs = m.deformations[name]
            lines.append("deformation %s base %s coeffs %s"
                         % (name, base, " ".join(coeffs)))
        elif kind == "post":
            p = m.posts[name]
            lines.append("post %s dim %d" % (name, p.dim))
            lines += _tensor_lines(fld, "pleft", name, p.left)
            lines += _tensor_lines(fld, "pright", name, p.right)
            lines += _tensor_lines(fld, "pbracket", name, p.bracket)
    return "\n".join(lines) + "\n"
