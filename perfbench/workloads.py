"""The four benchmark workloads: seeded inputs, jobs and output checks.

Every workload is built from a seed.  The seed changes input values and
job order, never shapes, so every seed does the same amount of work; the
``sizes`` of a workload are therefore identical across seeds, which
``selftest.py`` asserts.

A workload exposes:

* ``passes()``: an endless iterator of passes, each a list of jobs.  The
  runner only stops between passes, so each run holds whole passes and
  the mix of jobs is the same in every run.
* ``warm_up()``: untimed work that fills caches before the first timed job.
* ``sizes()``: the problem-size counts that must not depend on the seed.

A job is a ``Job(name, items, call, check)``: ``call()`` does the work
and is the only part timed; ``check(result)`` returns None when the
output is correct and a one-line reason otherwise.  ``items`` is the
number of problem items the job processes (a command, a delta column, a
dgLa law-check sample or a candidate matrix).  ``corrupt=True`` replaces
each expected value by a wrong one, so every job must fail; the self-test
uses it to show that each check can fail.
"""

import hashlib
import importlib.util
import io
import itertools
import os
import random
from collections import namedtuple

from leibniz_rb import cli, cohomology, graded, operators
from leibniz_rb.core import (LeibnizAlgebra, adjoint_grep,
                             change_of_basis_algebra)
from leibniz_rb.fields import PrimeField, RationalField
from leibniz_rb.linalg import Matrix
from leibniz_rb.manifest import load_manifest
from leibniz_rb.multimap import MultiMap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Job = namedtuple("Job", "name items call check")

# Fixed bases in which all 18 possible Heisenberg structure constants are
# nonzero.  Over Q, det = 2, so the constants have real denominators.
DENSE_BASIS_Q = [[2, -1, 0], [-1, -1, -1], [-2, 2, 0]]
DENSE_BASIS_GF3 = [[1, 1, 0], [1, 2, 1], [1, 1, 1]]
HEIS_BETTI = [3, 6, 15, 30]
COHOMOLOGY_DEGREE = 3
SEARCH_COUNT = 810
# sha256 of the sorted row-major entry tuples of the 810 operators of
# weight -1 on the GF(3) Heisenberg algebra, in the standard basis.
SEARCH_DIGEST = ("dcc6b6dc3026df25aac3e2c02860f62cfcb39fe8"
                 "feaa293c118777de99323f17")


def heisenberg(field):
    return LeibnizAlgebra.from_entries(field, 3, {(0, 1, 2): 1,
                                                  (1, 0, 2): -1})


def nonzero_constants(a):
    return sum(1 for plane in a.c for row in plane for x in row if x)


def basis_change(field, base, rng, scalars):
    """S = base * P for a seeded monomial matrix P (permutation times scalars).

    P only reorders the new basis and rescales its vectors by ``scalars``,
    so every seed transports the algebra to the same structure constants
    up to order and scaling: the density and the size of the numbers, and
    with them the work, do not depend on the seed.
    """
    perm = list(range(3))
    rng.shuffle(perm)
    p = [[field.zero] * 3 for _ in range(3)]
    for j, i in enumerate(perm):
        p[i][j] = field.coerce(rng.choice(scalars))
    s = Matrix(field, base) * Matrix(field, p)
    return s, change_of_basis_algebra(heisenberg(field), s)


class CliGolden:
    """The fast golden CLI cases, run in-process through cli.run_command."""

    name = "cli-golden"
    skip = ("dgla-dim2",)

    def __init__(self, seed, corrupt=False):
        self.rng = random.Random(seed)
        spec = importlib.util.spec_from_file_location(
            "golden_cases", os.path.join(ROOT, "tests", "golden_cases.py"))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        self.cases = [(name, argv) for name, argv in mod.CASES
                      if name not in self.skip]
        self.expected = {}
        for name, _ in self.cases:
            with open(os.path.join(ROOT, "tests", "golden", name + ".rpt"),
                      "rb") as fh:
                data = fh.read()
            if corrupt:
                data = data[:-1] + bytes([data[-1] ^ 1])
            self.expected[name] = data

    def job(self, name, argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            code = cli.run_command(list(argv), out=out, err=err)
            return ("exit %d\n" % code + out.getvalue()).encode("utf-8")

        def check(got):
            if got != self.expected[name]:
                return "%s: report differs from its golden file" % name
            return None

        return Job(name, 1, call, check)

    def one_pass(self):
        order = list(self.cases)
        self.rng.shuffle(order)
        return [self.job(name, argv) for name, argv in order]

    def passes(self):
        while True:
            yield self.one_pass()

    def warm_up(self):
        for job in self.one_pass():
            job.call()

    def sizes(self):
        return {"commands_per_pass": len(self.cases),
                "commands": sorted(name for name, _ in self.cases)}

    def values(self):
        return [job.name for job in self.one_pass()]


class CohomologyDense:
    """Heisenberg over Q, weight -1, T = id and T = 0, in a dense basis.

    Each pass transports the algebra along one of ``pool`` seeded basis
    changes S = DENSE_BASIS_Q * P, with P a signed permutation (|det S| = 2,
    all 18 structure constants nonzero), and computes the cohomology of
    both operators to degree 3.  Betti numbers do not depend on the basis.
    """

    name = "cohomology-dense"
    pool = 3

    def __init__(self, seed, corrupt=False):
        rng = random.Random(seed)
        q = RationalField()
        self.expected = list(HEIS_BETTI)
        if corrupt:
            self.expected[-1] += 1
        self.contexts = []
        for _ in range(self.pool):
            s, a = basis_change(q, DENSE_BASIS_Q, rng, (-1, 1))
            d = adjoint_grep(a)
            self.contexts.append((s, [
                ("id", operators.WeightedRBO(d, -1, Matrix.identity(q, 3))),
                ("zero", operators.WeightedRBO(d, -1, Matrix.zeros(q, 3, 3))),
            ]))

    def job(self, label, r):
        def call():
            return cohomology.cohomology(r, COHOMOLOGY_DEGREE).betti()

        def check(betti):
            if betti != self.expected:
                return "T=%s: Betti numbers %s, expected %s" % (
                    label, betti, self.expected)
            return None

        items = sum(cohomology.cochain_dim(r, n)
                    for n in range(COHOMOLOGY_DEGREE + 1))
        return Job("T=" + label, items, call, check)

    def passes(self):
        for _, ops in itertools.cycle(self.contexts):
            yield [self.job(label, r) for label, r in ops]

    def warm_up(self):
        cohomology.cohomology(self.contexts[0][1][0][1], 1)

    def sizes(self):
        return {
            "basis_changes": [s.shape for s, _ in self.contexts],
            "nonzero_constants": [nonzero_constants(ops[0][1].context.g)
                                  for _, ops in self.contexts],
            "delta_columns": [[self.job(label, r).items for label, r in ops]
                              for _, ops in self.contexts],
            "delta_shapes": [(cohomology.cochain_dim(ops[0][1], n + 1),
                              cohomology.cochain_dim(ops[0][1], n))
                             for _, ops in self.contexts
                             for n in range(COHOMOLOGY_DEGREE + 1)],
        }

    def values(self):
        return [s.rows for s, _ in self.contexts]


class DglaCross:
    """check_dgla with cross-checks on the dim2-nonlie adjoint context.

    The samples keep the arities and the zero pattern of
    ``dgla_samples(count=2, seed=0)``; only the nonzero coefficients,
    drawn from {-2, -1, 1, 2}, come from the seed, so the sparsity the
    lifted route works on is the same for every seed.
    """

    name = "dgla-cross"
    pool = 3
    weight = -1

    def __init__(self, seed, corrupt=False):
        rng = random.Random(seed)
        m = load_manifest(os.path.join(ROOT, "manifests", "dim2-nonlie.lra"))
        self.context = adjoint_grep(m.algebras["g"])
        self.expected_laws = ["graded-jacobi"] if corrupt else []
        template = graded.dgla_samples(self.context, count=2, seed=0)
        self.sample_sets = [[tuple(self.reseed(f, rng) for f in sample)
                             for sample in template]
                            for _ in range(self.pool)]

    def reseed(self, f, rng):
        fld = f.field
        rows = [[fld.coerce(rng.choice((-2, -1, 1, 2))) if x else fld.zero
                 for x in row] for row in f.coeffs]
        return MultiMap(fld, f.arity, f.src_dim, f.tgt_dim, rows)

    def job(self, samples):
        def call():
            return graded.check_dgla(self.context, self.weight, samples,
                                     cross_check=True).laws_violated()

        def check(laws):
            if laws != self.expected_laws:
                return "dgla laws violated: %s, expected %s" % (
                    laws, self.expected_laws)
            return None

        return Job("check_dgla", len(samples), call, check)

    def passes(self):
        for samples in itertools.cycle(self.sample_sets):
            yield [self.job(samples)]

    def warm_up(self):
        p = self.sample_sets[0][1][1]
        graded.check_dgla(self.context, self.weight, [(p, p)],
                          cross_check=True)

    def sizes(self):
        return {
            "arities": [[tuple(f.arity for f in sample) for sample in samples]
                        for samples in self.sample_sets],
            "shapes": [[tuple((f.src_dim, f.tgt_dim) for f in sample)
                        for sample in samples] for samples in self.sample_sets],
            "nonzero": [[tuple(sum(1 for row in f.coeffs for x in row if x)
                               for f in sample) for sample in samples]
                        for samples in self.sample_sets],
        }

    def values(self):
        return [[f.flatten() for sample in samples for f in sample]
                for samples in self.sample_sets]


def operator_digest(mats):
    entries = sorted(tuple(x.v for row in t.rows for x in row) for t in mats)
    return hashlib.sha256(repr(entries).encode("ascii")).hexdigest()


class SearchGF3:
    """search_rbos on Heisenberg over GF(3), weight -1, in a dense basis.

    The seeded S = DENSE_BASIS_GF3 * P, with P a monomial matrix, makes
    all 18 structure constants nonzero.  The 810 operators found, mapped
    back to the standard basis by T = S T' S^-1, must match the recorded
    digest.
    """

    name = "search-gf3"
    weight = -1

    def __init__(self, seed, corrupt=False):
        rng = random.Random(seed)
        self.field = PrimeField(3)
        self.s, a = basis_change(self.field, DENSE_BASIS_GF3, rng, (1, 2))
        self.s_inv = self.s.inverse()
        self.context = adjoint_grep(a)
        self.expected = "0" * 64 if corrupt else SEARCH_DIGEST
        self.candidates = self.field.p ** (a.dim * a.dim)

    def job(self):
        def call():
            return list(operators.search_rbos(self.context, self.weight))

        def check(found):
            if len(found) != SEARCH_COUNT:
                return "found %d operators, expected %d" % (len(found),
                                                            SEARCH_COUNT)
            digest = operator_digest(self.s * t * self.s_inv for t in found)
            if digest != self.expected:
                return "operator set digest %s differs" % digest[:12]
            return None

        return Job("search_rbos", self.candidates, call, check)

    def passes(self):
        while True:
            yield [self.job()]

    def warm_up(self):
        small = adjoint_grep(LeibnizAlgebra.from_entries(
            self.field, 2, {(0, 0, 1): 1}))
        list(operators.search_rbos(small, self.weight))

    def sizes(self):
        return {"basis_change": self.s.shape, "candidates": self.candidates,
                "nonzero_constants": nonzero_constants(self.context.g)}

    def values(self):
        return [[x.v for x in row] for row in self.s.rows]


WORKLOADS = {w.name: w for w in (CliGolden, CohomologyDense, DglaCross,
                                 SearchGF3)}
