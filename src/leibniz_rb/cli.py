"""Command-line interface.

Every command reads a .lra manifest, runs one computation and prints a
report; `--format machine` emits stable line-oriented key/value text with
a schema version header so reports can be diffed byte-for-byte.  Exit
codes: 0 pass, 1 mathematical failure (violations found, not extensible,
criterion unsatisfied), 2 usage or resource errors.
"""

import argparse
import sys
from contextlib import redirect_stdout
from functools import cache

from .cohomology import cohomology
from .core import (adjoint_grep, validate_leibniz, validate_leibniz_g_rep)
from .deformations import (Deformation, check_deformation, check_nijenhuis,
                           extend, obstruction, rigidity_certificate)
from .errors import (InvalidDeformation, InvalidInput, InvalidOperator,
                     LrbError, ManifestError, NotInvertible, ResourceLimit,
                     ShapeMismatch, WrongField, WrongWeight)
from .graded import (SAMPLE_MAX_ARITY, check_dgla, dgla_samples,
                     maurer_cartan_residual)
from .linalg import Matrix
from .manifest import load_manifest
from .operators import (WeightedRBO, graph_check,
                        induced_algebra, search_rbos)
from .postleibniz import from_rbo, total_algebra, validate_post_leibniz

SCHEMA = "leibniz-rb-report 1"


class Report:
    """Accumulates lines for both output formats."""

    def __init__(self, command, fmt):
        self.fmt = fmt
        self.kv = [("schema", SCHEMA), ("command", command)]
        self.text = []

    def add(self, key, value, text=None):
        self.kv.append((key, str(value)))
        self.text.append(text if text is not None else
                         "%s: %s" % (key, value))

    def emit(self, out=sys.stdout):
        if self.fmt == "machine":
            for k, v in self.kv:
                out.write("%s %s\n" % (k, v))
        else:
            for line in self.text:
                out.write(line + "\n")


def _named(table, name, what, flags):
    """table[name], or the only entry of table when name is None."""
    if name is None:
        if len(table) != 1:
            raise InvalidInput("manifest has %d %ss; pick one with %s"
                               % (len(table), what, flags))
        name = next(iter(table))
    if name not in table:
        raise InvalidInput("no %s named %r in manifest" % (what, name))
    return table[name]


def _context(m, args):
    """The Leibniz g-representation selected by --actions / --algebra."""
    if getattr(args, "actions", None):
        if args.actions not in m.actions:
            raise InvalidInput("no actions named %r in manifest" % args.actions)
        return m.grep(args.actions)
    return adjoint_grep(_named(m.algebras, getattr(args, "algebra", None),
                               "algebra", "--algebra or --actions"))


def _operator(m, d, args):
    name = getattr(args, "operator", None)
    if name is None:
        raise InvalidInput("--operator is required")
    if name == "id":
        if d.g.dim != d.h.dim:
            raise ShapeMismatch("--operator id needs matching dimensions")
        return Matrix.identity(m.field, d.g.dim)
    if name == "zero":
        return Matrix.zeros(m.field, d.g.dim, d.h.dim)
    if name not in m.maps:
        raise InvalidInput("no map named %r in manifest" % name)
    return m.maps[name][2]


def _weight(m, args):
    w = getattr(args, "weight", None)
    if w is None:
        if "lambda" in m.scalars:
            return m.scalars["lambda"]
        raise InvalidInput("--weight is required (no scalar 'lambda' in "
                           "manifest)")
    if w in m.scalars:
        return m.scalars[w]
    try:
        return m.field.parse(w)
    except Exception:
        raise InvalidInput("cannot parse weight %r" % w)


def _rbo(m, args):
    d = _context(m, args)
    return WeightedRBO(d, _weight(m, args), _operator(m, d, args))


def _deformation(m, args):
    base_name, coeff_names = _named(m.deformations,
                                    getattr(args, "deformation", None),
                                    "deformation", "--deformation")
    d = _context(m, args)
    base = WeightedRBO(d, _weight(m, args), m.maps[base_name][2])
    coeffs = [base.t] + [m.maps[nm][2] for nm in coeff_names]
    return Deformation(base, coeffs)


def _post(m, args):
    return _named(m.posts, getattr(args, "post", None), "post structure",
                  "--post")


def _status(rep, ok, text=None):
    """The status line of a verdict; the exit code, 0 on pass, 1 on fail."""
    rep.add("status", "pass" if ok else "fail", text)
    return 0 if ok else 1


def _report_violations(rep, vrep):
    code = _status(rep, vrep.ok, vrep.summary())
    rep.add("violations", len(vrep.violations))
    for v in vrep.violations:
        rep.add("violation", "%s %s" % (v.law, ",".join(map(str, v.where))),
                "  %s at %s" % (v.law, v.where))
    return code


def _tensor_report(rep, dim, **stores):
    """The dim line, then sparse `i j -> coeff k` lines for each structure
    tensor's store, keyed by its name."""
    rep.add("dim", dim)
    for key, store in stores.items():
        for (i, j), row in store.vectors():
            for k, c in enumerate(row):
                if c:
                    rep.add(key, "e%d e%d -> %s e%d"
                            % (i + 1, j + 1, store.field.format(c), k + 1))


def _matrix_report(rep, key, mat, fld):
    for a in range(mat.ncols):
        pairs = ["%s e%d" % (fld.format(mat.entry(i, a)), i + 1)
                 for i in range(mat.nrows) if mat.entry(i, a)]
        if pairs:
            rep.add(key, "e%d -> %s" % (a + 1, " ".join(pairs)))


def cmd_validate(m, args, rep):
    checks = ([("algebra", n, validate_leibniz, a) for n, a in m.algebras.items()]
              + [("actions", n, validate_leibniz_g_rep, m.grep(n))
                 for n in m.actions]
              + [("post", n, validate_post_leibniz, p)
                 for n, p in m.posts.items()])
    worst = 0
    for kind, name, validate, obj in checks:
        vrep = validate(obj)
        rep.add(kind, "%s %s" % (name, "pass" if vrep.ok else "fail"),
                "%s %s: %s" % (kind, name, vrep.summary()))
        worst = max(worst, 0 if vrep.ok else 1)
    return _status(rep, worst == 0)


def cmd_check_rbo(m, args, rep):
    r = _rbo(m, args)
    return _report_violations(rep, r.validate())


def cmd_graph_check(m, args, rep):
    d = _context(m, args)
    ok = graph_check(d, _weight(m, args), _operator(m, d, args))
    return _status(rep, ok, "graph is %sclosed under the semidirect bracket"
                   % ("" if ok else "not "))


def cmd_induced(m, args, rep):
    a = induced_algebra(_rbo(m, args))
    _tensor_report(rep, a.dim, bracket=a.c_nz)
    return _status(rep, True)


def cmd_cohomology(m, args, rep):
    r = _rbo(m, args)
    out = cohomology(r, args.max_degree, cap=args.cap)
    for n in range(args.max_degree + 1):
        dd = out.degrees[n]
        rep.add("degree", "%d c %d z %d b %d h %d"
                % (n, dd.dim_c, dd.dim_z, dd.dim_b, dd.dim_h),
                "degree %d: dim C = %d, dim Z = %d, dim B = %d, dim H = %d"
                % (n, dd.dim_c, dd.dim_z, dd.dim_b, dd.dim_h))
    return _status(rep, True)


def cmd_mc_residual(m, args, rep):
    d = _context(m, args)
    resid = maurer_cartan_residual(d, _weight(m, args), _operator(m, d, args))
    ok = resid.is_zero()
    return _status(rep, ok, "Maurer-Cartan residual is %szero"
                   % ("" if ok else "non"))


def cmd_dgla_check(m, args, rep):
    d = _context(m, args)
    cells = 2 * args.samples * d.g.dim * d.h.dim ** (3 * SAMPLE_MAX_ARITY)
    if cells > args.cap:  # refused before any sample is drawn
        raise ResourceLimit("dgla-check needs %d cells, more than the "
                            "configured cap %d" % (cells, args.cap))
    samples = dgla_samples(d, count=args.samples)
    vrep = check_dgla(d, _weight(m, args), samples)
    rep.add("samples", len(samples))
    return _report_violations(rep, vrep)


def cmd_deform_check(m, args, rep):
    defm = _deformation(m, args)
    rep.add("order", defm.order)
    return _report_violations(rep, check_deformation(defm))


def cmd_obstruct(m, args, rep):
    defm = _deformation(m, args)
    if not check_deformation(defm).ok:
        raise InvalidDeformation("deformation equations fail")
    cls = obstruction(defm)
    rep.add("zero", "yes" if cls.ob.is_zero() else "no",
            "obstruction cochain is %szero"
            % ("" if cls.ob.is_zero() else "non"))
    rep.add("coboundary", "yes" if cls.is_coboundary else "no",
            "obstruction class %s"
            % ("vanishes" if cls.is_coboundary else "does not vanish"))
    if cls.witness is not None:
        _matrix_report(rep, "witness", cls.witness, m.field)
    return _status(rep, cls.is_coboundary)


def cmd_extend(m, args, rep):
    defm = _deformation(m, args)
    if not check_deformation(defm).ok:
        raise InvalidDeformation("deformation equations fail")
    ext = extend(defm)
    if ext is None:
        return _status(rep, False, "not extensible: obstruction class does "
                                   "not vanish")
    rep.add("order", ext.order)
    _matrix_report(rep, "next", ext.coeffs[-1], m.field)
    return _status(rep, True)


def cmd_nijenhuis(m, args, rep):
    r = _rbo(m, args)
    if args.element is None:
        raise InvalidInput("--element is required")
    try:
        x0 = [m.field.parse(t) for t in args.element.split(",")]
    except Exception:
        raise InvalidInput("cannot parse --element %r" % args.element)
    ok = check_nijenhuis(r, x0)
    return _status(rep, ok, "element is %sa Nijenhuis element"
                   % ("" if ok else "not "))


def cmd_rigidity(m, args, rep):
    cert = rigidity_certificate(_rbo(m, args), cap=args.cap)
    rep.add("dim-z1", cert.dim_z1)
    rep.add("nijenhuis-count", cert.nijenhuis_count)
    code = _status(rep, cert.satisfied, "rigidity criterion %s"
                   % ("satisfied" if cert.satisfied else "not satisfied"))
    if cert.witness is not None:
        rep.add("witness", " ".join(m.field.format(x) for x in cert.witness))
    return code


def cmd_post_validate(m, args, rep):
    return _report_violations(rep, validate_post_leibniz(_post(m, args)))


def cmd_post_from_rbo(m, args, rep):
    p = from_rbo(_rbo(m, args))
    _tensor_report(rep, p.dim, pleft=p.left_nz, pright=p.right_nz,
                   pbracket=p.bracket_nz)
    return _status(rep, True)


def cmd_total(m, args, rep):
    a = total_algebra(_post(m, args))
    _tensor_report(rep, a.dim, bracket=a.c_nz)
    return _status(rep, True)


def cmd_search(m, args, rep):
    d = _context(m, args)
    lam = _weight(m, args)
    count = 0
    for t in search_rbos(d, lam, cap=args.cap):
        count += 1
        flat = " ".join(m.field.format(t.entry(i, j))
                        for i in range(t.nrows) for j in range(t.ncols))
        rep.add("operator", flat)
    rep.add("count", count)
    return _status(rep, True)


COMMANDS = {
    "validate": cmd_validate,
    "check-rbo": cmd_check_rbo,
    "graph-check": cmd_graph_check,
    "induced": cmd_induced,
    "cohomology": cmd_cohomology,
    "mc-residual": cmd_mc_residual,
    "dgla-check": cmd_dgla_check,
    "deform-check": cmd_deform_check,
    "obstruct": cmd_obstruct,
    "extend": cmd_extend,
    "nijenhuis": cmd_nijenhuis,
    "rigidity": cmd_rigidity,
    "post-validate": cmd_post_validate,
    "post-from-rbo": cmd_post_from_rbo,
    "total": cmd_total,
    "search": cmd_search,
}


def _count(minimum):
    """argparse type: an int that is at least ``minimum``."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (minimum, value))
        return value

    parse.__name__ = "int"  # argparse says "invalid int value" for non-ints
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line on the caller's stream instead of the usage block
        raise argparse.ArgumentError(None, message)


@cache
def build_parser():
    """The parser of the process, built on first use and then reused.

    Sharing it is safe because parse_args does not change a parser.
    """
    ap = _Parser(
        prog="leibniz-rb",
        description="Exact computations with Leibniz algebras and weighted "
                    "Rota-Baxter operators.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("manifest", help=".lra manifest file")
    ap.add_argument("--field", help="override the manifest field, e.g. 'gf 5'")
    ap.add_argument("--algebra", help="algebra name (adjoint context)")
    ap.add_argument("--actions", help="action-pair name (relative context)")
    ap.add_argument("--operator", help="map name, or 'id' / 'zero'")
    ap.add_argument("--weight", help="weight scalar (literal or scalar name)")
    ap.add_argument("--deformation", help="deformation name")
    ap.add_argument("--post", help="post-Leibniz structure name")
    ap.add_argument("--element", help="comma-separated coordinates in g")
    ap.add_argument("--max-degree", type=_count(0), default=2)
    ap.add_argument("--cap", type=_count(0), default=20000)
    ap.add_argument("--samples", type=_count(0), default=4)
    ap.add_argument("--format", choices=["text", "machine"], default="text")
    ap.add_argument("--jobs", type=_count(1), default=1,
                    help="accepted and ignored; the run is single-process")
    return ap


def run_command(argv, out=sys.stdout, err=sys.stderr):
    ap = build_parser()
    try:
        with redirect_stdout(out):  # -h / --help
            args = ap.parse_args(argv)
    except argparse.ArgumentError as exc:
        err.write("leibniz-rb: error: %s\n" % exc)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    rep = Report(args.command, args.format)
    try:
        m = load_manifest(args.manifest, args.field)
        code = COMMANDS[args.command](m, args, rep)
    except (InvalidOperator, InvalidDeformation) as exc:
        err.write("error: %s\n" % exc)
        return 1
    except (ManifestError, ResourceLimit, WrongField, WrongWeight,
            NotInvertible, ShapeMismatch, InvalidInput, OSError) as exc:
        err.write("error: %s\n" % exc)
        return 2
    except LrbError as exc:
        err.write("internal error: %s\n" % exc)
        return 2
    rep.emit(out)
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
