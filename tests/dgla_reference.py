"""The dgLa laws checked on the field, one public call per quantity.

``reference_dgla`` verifies graded antisymmetry, the graded Leibniz rule
and d^2 = 0 on pairs, and the graded Jacobi identity on triples, with
every bracket and differential a call of the public ``derived_bracket`` or
``differential_d`` on field maps: each call scales its own inputs to ints,
compares both routes and divides its result back to the field.  The
library's ``check_dgla`` scales lambda and the samples once, keeps every
nested result as an int map and divides back only the sides of a
violated law; the tests compare the two reports.
"""

from leibniz_rb.core import ValidationReport, _pow_sign
from leibniz_rb.graded import derived_bracket, differential_d


def reference_dgla(d, lam, samples):
    """The report of ``check_dgla(d, lam, samples)``."""
    rep, fld = ValidationReport("dgla"), d.field
    br = lambda a, b: derived_bracket(d, a, b)
    dd = lambda a: differential_d(d, lam, a)
    for k, sample in enumerate(samples):
        if len(sample) == 2:
            p, q = sample
            m, n = p.arity, q.arity
            pq = br(p, q)
            if not (pq + br(q, p).scale(_pow_sign(fld, m * n))).is_zero():
                rep.add("graded-antisymmetry", (k,), pq.flatten(), [])
            dp = dd(p)
            lhs = dd(pq)
            rhs = br(dp, q) + br(p, dd(q)).scale(_pow_sign(fld, m))
            if lhs != rhs:
                rep.add("graded-leibniz-rule", (k,), lhs.flatten(),
                        rhs.flatten())
            ddp = dd(dp)
            if not ddp.is_zero():
                rep.add("d-squared", (k,), ddp.flatten(), [])
        else:
            p, q, r = sample
            m, n = p.arity, q.arity
            lhs = br(p, br(q, r))
            rhs = br(br(p, q), r) + br(q, br(p, r)).scale(
                _pow_sign(fld, m * n))
            if lhs != rhs:
                rep.add("graded-jacobi", (k,), lhs.flatten(), rhs.flatten())
    return rep
