"""The .lra manifest format; no other module knows its syntax.

Line-oriented, UTF-8, `#` comments.  A manifest declares a field followed
by named objects; tensor and map entries are sparse (omitted entries are
zero) and use 1-based basis tokens e1, e2, ...

    field rational              | field gf 5
    algebra g dim 2
    bracket g e1 e1 -> 1 e2
    actions act on g h
    left act e1 e1 -> 1 e1
    right act e1 e1 -> 1 e1
    map T from h to g
    entry T e1 -> 1 e1 -2 e2
    scalar lambda -1
    deformation D base T coeffs T1 T2
    post P dim 2
    pleft P e1 e1 -> 1 e2
    pright P e1 e1 -> 1 e2
    pbracket P e1 e1 -> 1 e2

The tables DECLS (declaration patterns) and ENTRIES (what each entry
directive fills) drive parse, build and render.  render() produces a
canonical text with entries in lexicographic order; parse(render(m))
reproduces m exactly.  Entry lines add up in the store of their tensor (a
map is the one plane of a 3-tensor).  A declaration is refused with
ResourceLimit, before anything is allocated, when its dimension n has
n^3 > MAX_TENSOR_CELLS (n > 100) or when the running total of dense tensor
cells (algebra n^3, actions 2 n_g n_h^2, post 3 n^3, map n_src n_dst)
passes MAX_MANIFEST_CELLS.
"""

from math import prod

from .core import ActionPair, LeibnizAlgebra, LeibnizGRep, _Store
from .errors import ManifestError, ResourceLimit
from .fields import field_from_spec
from .linalg import Matrix
from .postleibniz import PostLeibnizAlgebra

MAX_TENSOR_CELLS = 10 ** 6
MAX_MANIFEST_CELLS = 4 * MAX_TENSOR_CELLS

# Lower-case words are literal.  NAME names the declared object and N is
# its dimension; G, H, SRC and DST name declared algebras, MAP and MAPS...
# (zero or more) declared maps, and VALUE is a scalar.
DECLS = {
    "algebra": "algebra NAME dim N",
    "actions": "actions NAME on G H",
    "map": "map NAME from SRC to DST",
    "scalar": "scalar NAME VALUE",
    "deformation": "deformation NAME base MAP coeffs MAPS...",
    "post": "post NAME dim N",
}

# directive -> (declaration it fills, that declaration's name in messages,
# the space of each left-hand basis token and then of the right-hand
# side's).  A space is a placeholder of the declaration: N is the declared
# object itself, G, H, SRC or DST the algebra named there.
ENTRIES = {
    "bracket": ("algebra", "algebra", ("N", "N", "N")),
    "left": ("actions", "actions", ("G", "H", "H")),
    "right": ("actions", "actions", ("H", "G", "H")),
    "entry": ("map", "map", ("SRC", "DST")),
    "pleft": ("post", "post structure", ("N", "N", "N")),
    "pright": ("post", "post structure", ("N", "N", "N")),
    "pbracket": ("post", "post structure", ("N", "N", "N")),
}

_PATTERNS = {kind: pattern.split() for kind, pattern in DECLS.items()}
_FILLS = {kind: [(kw, axes) for kw, (decl, _, axes) in ENTRIES.items()
                 if decl == kind] for kind in DECLS}
_REFERS = {"G": "algebra", "H": "algebra", "SRC": "algebra",
           "DST": "algebra", "MAP": "map", "MAPS...": "map"}


class Manifest:
    """The declared objects: one {name: object} dict per kind in ``objects``.

    The dicts are also the attributes algebras, actions (name -> (g_name,
    h_name, ActionPair)), maps (name -> (src_name, dst_name, Matrix)),
    scalars, deformations (name -> (base, [coeffs])) and posts.
    """

    def __init__(self, field, field_spec):
        self.field = field
        self.field_spec = field_spec
        self.objects = {kind: {} for kind in DECLS}
        (self.algebras, self.actions, self.maps, self.scalars,
         self.deformations, self.posts) = self.objects.values()
        self._order = []       # (kind, name) in declaration order

    def grep(self, name):
        gname, hname, pair = self.actions[name]
        return LeibnizGRep(self.algebras[gname], self.algebras[hname], pair)

    def __eq__(self, other):
        return (isinstance(other, Manifest)
                and self.field_spec == other.field_spec
                and self.objects == other.objects)


def _tokens(raw):
    return raw.split("#", 1)[0].split()


def _basis_index(tok, space, line_no):
    what, dim = space
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


def _parse_scalar(field, tok, line_no):
    try:
        return field.parse(tok)
    except Exception:
        raise ManifestError("bad scalar %r" % tok, line_no)


def _declare(field, kind, toks, line_no, decls):
    """Placeholder values and basis spaces of a declaration line."""
    pattern = _PATTERNS[kind]
    if pattern[-1].endswith("..."):
        toks = toks[:len(pattern) - 1] + [toks[len(pattern) - 1:]]
    if len(toks) != len(pattern) or any(
            w.islower() and t != w for w, t in zip(pattern, toks)):
        raise ManifestError("expected: " + DECLS[kind], line_no)
    values, spaces = {}, {}
    for w, tok in zip(pattern[1:], toks[1:]):
        if w == "NAME":
            if (kind, tok) in decls:
                raise ManifestError("duplicate %s %r" % (kind, tok), line_no)
        elif w == "N":
            try:
                tok = int(tok)
            except ValueError:
                raise ManifestError("bad dimension %r" % tok, line_no)
            if tok < 0:
                raise ManifestError("negative dimension", line_no)
            if tok ** 3 > MAX_TENSOR_CELLS:
                raise ResourceLimit(
                    "dim %d needs %d tensor cells, over the budget of %d"
                    % (tok, tok ** 3, MAX_TENSOR_CELLS), line_no)
            spaces[w] = (values["NAME"], tok)
        elif w == "VALUE":
            tok = _parse_scalar(field, tok, line_no)
        elif w in _REFERS:
            ref = _REFERS[w]
            for name in tok if w.endswith("...") else [tok]:
                if (ref, name) not in decls:
                    raise ManifestError("unknown %s %r" % (ref, name),
                                        line_no)
            if ref == "algebra":
                spaces[w] = decls[ref, tok][1]["N"]
        values[w] = tok
    return values, spaces


def _parse_entry(field, kw, toks, line_no, decls):
    """Add the cells of one entry line to its declaration's cell lists."""
    kind, what, axes = ENTRIES[kw]
    name = toks[1] if len(toks) > 1 else ""
    if (kind, name) not in decls:
        raise ManifestError("unknown %s %r" % (what, name), line_no)
    _, spaces, cells = decls[kind, name]
    if "->" not in toks[2:]:
        raise ManifestError("missing '->'", line_no)
    arrow = toks.index("->", 2)
    lhs, rhs = toks[2:arrow], toks[arrow + 1:]
    if len(lhs) != len(axes) - 1:
        count = "one basis token" if len(axes) == 2 else "two basis tokens"
        raise ManifestError("%s takes %s" % (kw, count), line_no)
    idx = (0,) * (3 - len(axes)) + tuple(
        _basis_index(t, spaces[a], line_no) for t, a in zip(lhs, axes))
    if len(rhs) % 2 != 0 or not rhs:
        raise ManifestError("entry right-hand side must be coefficient/basis "
                            "pairs", line_no)
    _, keys, scalars = cells[kw]
    for c, b in zip(rhs[::2], rhs[1::2]):
        keys.append(idx + (_basis_index(b, spaces[axes[-1]], line_no),))
        scalars.append(_parse_scalar(field, c, line_no))


def _build(field, kind, values, spaces, cells):
    """The manifest object of one declaration."""
    if kind == "scalar":
        return values["VALUE"]
    if kind == "deformation":
        return values["MAP"], values["MAPS..."]
    dims = [dim for _, dim in spaces.values()]
    stores = [_Store(field, shape, zip(keys, field.to_raw(scalars)))
              for shape, keys, scalars in cells.values()]
    if kind == "map":  # T e_a is the row (0, a)
        return values["SRC"], values["DST"], Matrix.from_cols(
            field, [stores[0].vector((0, a)) for a in range(dims[0])], dims[1])
    if kind == "actions":
        return values["G"], values["H"], ActionPair(field, *dims, *stores)
    cls = LeibnizAlgebra if kind == "algebra" else PostLeibnizAlgebra
    return cls(field, *dims, *stores)


def parse_manifest(text):
    field = None
    spec = None
    decls = {}  # (kind, name) -> (values, spaces, cells), in order
    cells = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
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
        elif kw in ENTRIES:
            _parse_entry(field, kw, toks, line_no, decls)
        elif kw in DECLS:
            values, spaces = _declare(field, kw, toks, line_no, decls)
            shapes = [(d, (1,) * (3 - len(axes))
                       + tuple(spaces[a][1] for a in axes))
                      for d, axes in _FILLS[kw]]
            cells += sum(prod(shape) for _, shape in shapes)
            if cells > MAX_MANIFEST_CELLS:
                raise ResourceLimit("the manifest needs %d tensor cells, over "
                                    "the budget of %d"
                                    % (cells, MAX_MANIFEST_CELLS), line_no)
            decls[kw, values["NAME"]] = values, spaces, {
                d: (shape, [], []) for d, shape in shapes}
        else:
            raise ManifestError("unknown directive %r" % kw, line_no)

    if field is None:
        raise ManifestError("manifest declares no field", 0)
    for (kind, name), (values, _, _) in decls.items():
        if kind == "deformation" and len({
                tuple(decls["map", nm][1].values())
                for nm in [values["MAP"]] + values["MAPS..."]}) > 1:
            raise ManifestError(
                "deformation %r mixes maps of different shapes" % name, 0)
    m = Manifest(field, spec)
    m._order = list(decls)
    for (kind, name), (values, spaces, tensors) in decls.items():
        m.objects[kind][name] = _build(field, kind, values, spaces, tensors)
    return m


def _parts(field, kind, obj):
    """(placeholder values, the (left-hand indices, right-hand row) pairs
    of each entry directive in lexicographic order) of a manifest object."""
    if kind in ("algebra", "post"):
        stores = ([obj.c_nz] if kind == "algebra"
                  else [obj.left_nz, obj.right_nz, obj.bracket_nz])
        return {"N": obj.dim}, [s.vectors() for s in stores]
    if kind == "actions":
        return {"G": obj[0], "H": obj[1]}, [obj[2].left_nz.vectors(),
                                            obj[2].right_nz.vectors()]
    if kind == "map":
        return {"SRC": obj[0], "DST": obj[1]}, [
            [((a,), col) for a, col in enumerate(obj[2].transpose().rows)]]
    if kind == "scalar":
        return {"VALUE": field.format(obj)}, []
    return {"MAP": obj[0], "MAPS...": " ".join(obj[1])}, []


def render_manifest(m):
    """Canonical text form; stable under parse/render round trips."""
    fld = m.field
    lines = ["field %s" % m.field_spec]
    for kind, name in m._order:
        values, entries = _parts(fld, kind, m.objects[kind][name])
        values["NAME"] = name
        lines.append(" ".join(str(values.get(w, w))
                              for w in _PATTERNS[kind]))
        for (kw, _), rows in zip(_FILLS[kind], entries):
            for lhs, row in rows:
                rhs = ["%s e%d" % (fld.format(c), k + 1)
                       for k, c in enumerate(row) if c]
                if rhs:
                    lines.append("%s %s %s -> %s"
                                 % (kw, name,
                                    " ".join("e%d" % (i + 1) for i in lhs),
                                    " ".join(rhs)))
    return "\n".join(lines) + "\n"


def load_manifest(path, field=None):
    """Parse the manifest file at ``path``.

    ``field``, a spec such as "gf 5", replaces the file's first `field`
    line or, when it has none, is declared ahead of it; either way errors
    name the file's own line numbers.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError("%s is not UTF-8 text (byte 0x%02x at offset %d)"
                            % (path, data[exc.start], exc.start)) from None
    if not field:
        return parse_manifest(text)
    lines = text.splitlines()
    own = [i for i, raw in enumerate(lines) if _tokens(raw)[:1] == ["field"]]
    if own:
        lines[own[0]] = "field " + field
        return parse_manifest("\n".join(lines) + "\n")
    try:
        return parse_manifest("field %s\n%s" % (field, text))
    except (ManifestError, ResourceLimit) as exc:
        if not exc.line:
            raise
        # line 1 is the declared field, which is not in the file
        raise type(exc)(exc.reason, exc.line - 1 or None) from None
