"""Per-layer tracing of leibniz_rb from outside the library.

``Tracer.install()`` replaces selected public functions and methods of the
library with wrappers that keep aggregate counters: calls, inclusive time
and self time (inclusive time minus the time of wrapped callees).  There
are no per-call spans; leaves called 10^5 times or more per run, such as
``GFElement`` construction and scalar coercion, only count calls.

A module-level function is rebound in every ``leibniz_rb`` module that
holds it, because ``from .core import leibniz_differential`` gives
``cohomology`` a binding of its own that patching ``core`` alone would
miss.  ``remove()`` restores every original binding.
"""

import sys
import time

from leibniz_rb import (cli, cohomology, core, deformations, errors, fields,
                        graded, linalg, manifest, multimap, operators,
                        postleibniz)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "units")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.units = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []
        self.undo = []
        self.found = 0
        self.candidates = 0

    def stat(self, key):
        return self.stats.setdefault(key, Stat())

    def timed(self, key, fn, units=None):
        st = self.stat(key)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if units is not None:
                st.units += units(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def counted(self, key, fn, units=None):
        st = self.stat(key)
        if units is None:
            def wrapper(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                st.calls += 1
                st.units += units(*args, **kwargs)
                return fn(*args, **kwargs)
        return wrapper

    def counted_search(self, fn):
        def wrapper(d, *args, **kwargs):
            for t in fn(d, *args, **kwargs):
                self.found += 1
                yield t
            # only a completed search has enumerated every candidate
            self.candidates += d.field.p ** (d.g.dim * d.h.dim)

        return wrapper

    def patch_function(self, module, name, make):
        orig = getattr(module, name)
        wrapper = make(orig)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("leibniz_rb"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self.undo.append((mod, attr, orig, True))

    def patch_method(self, cls, name, make):
        had = name in vars(cls)
        orig = vars(cls).get(name)
        setattr(cls, name, make(getattr(cls, name)))
        self.undo.append((cls, name, orig, had))

    def install(self):
        tm, ct, fn, mt = self.timed, self.counted, self.patch_function, \
            self.patch_method
        for cls in (fields.RationalField, fields.PrimeField):
            mt(cls, "coerce", lambda f: ct("fields.coerce", f))
        mt(fields.GFElement, "__init__", lambda f: ct("fields.gf_new", f))
        mt(linalg.Matrix, "rref", lambda f: tm(
            "linalg.rref", f, lambda m: m.nrows * m.ncols))
        mt(linalg.Matrix, "mul_vec", lambda f: tm("linalg.mul_vec", f))
        mt(linalg.Matrix, "__init__", lambda f: ct("linalg.Matrix.new", f))
        mt(multimap.MultiMap, "apply", lambda f: tm("multimap.apply", f))
        mt(multimap.MultiMap, "__init__", lambda f: ct(
            "multimap.MultiMap.new", f,
            lambda m, field, arity, src_dim, *a, **k: src_dim ** arity))
        fn(core, "leibniz_differential",
           lambda f: tm("core.leibniz_differential", f))
        mt(core.LeibnizAlgebra, "bracket", lambda f: tm("core.contract", f))
        mt(core.ActionPair, "left_act", lambda f: tm("core.contract", f))
        mt(core.ActionPair, "right_act", lambda f: tm("core.contract", f))
        fn(core, "validate_leibniz_g_rep",
           lambda f: tm("core.validate_leibniz_g_rep", f))
        fn(graded, "circ_i", lambda f: tm("graded.circ_i", f))
        fn(graded, "balavoine_bracket",
           lambda f: tm("graded.balavoine_bracket", f))
        for name in ("derived_bracket_explicit", "differential_d_explicit"):
            fn(graded, name, lambda f: tm("graded.route_primary", f))
        for name in ("derived_bracket_lifted", "differential_d_lifted"):
            fn(graded, name, lambda f: tm("graded.route_crosscheck", f))
        fn(operators, "check_weighted_relative_rbo",
           lambda f: tm("operators.check", f))
        mt(operators.WeightedRBO, "validate",
           lambda f: ct("operators.validate", f))
        fn(operators, "search_rbos", self.counted_search)
        fn(cohomology, "delta_matrix", lambda f: tm(
            "cohomology.delta_matrix", f,
            lambda r, n, *a, **k: cohomology.cochain_dim(r, n)))
        fn(cohomology, "induced_representation",
           lambda f: tm("cohomology.induced_representation", f))
        for name, value in list(vars(deformations).items()):
            if (callable(value) and not name.startswith("_")
                    and getattr(value, "__module__", None)
                    == deformations.__name__ and not isinstance(value, type)):
                fn(deformations, name, lambda f: tm("deformations", f))
        fn(postleibniz, "validate_post_leibniz",
           lambda f: tm("postleibniz.validate_post_leibniz", f))
        fn(postleibniz, "total_algebra",
           lambda f: tm("postleibniz.total_algebra", f))
        fn(manifest, "parse_manifest", lambda f: tm(
            "manifest.parse_manifest", f,
            lambda text: len(text.encode("utf-8"))))
        fn(cli, "run_command", lambda f: tm("cli.run_command", f))
        mt(errors.OracleDisagreement, "__init__",
           lambda f: ct("errors.oracle_disagreements", f))
        mt(errors.ResourceLimit, "__init__",
           lambda f: ct("errors.resource_limits", f))

    def remove(self):
        for owner, name, orig, had in reversed(self.undo):
            if had:
                setattr(owner, name, orig)
            else:
                delattr(owner, name)
        self.undo = []

    def table(self, jobs, overhead_frac, time_scale):
        """Per-layer metrics; counts and times are per job.

        Times are multiplied by ``time_scale``, the run's calibration
        factor, so that they are in the same reference seconds as the
        end-to-end times.
        """
        def s(key):
            return self.stats.get(key, Stat())

        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def calls(key, name=None):
            put((name or key) + ".calls", s(key).calls / jobs, "count")

        def self_s(key, name=None):
            put((name or key) + ".self_s", s(key).self_s / jobs, "s")

        calls("fields.coerce")
        calls("fields.gf_new")
        calls("linalg.rref")
        self_s("linalg.rref")
        put("linalg.rref.cells", s("linalg.rref").units / jobs, "count")
        calls("linalg.mul_vec")
        self_s("linalg.mul_vec")
        calls("linalg.Matrix.new")
        calls("multimap.apply")
        self_s("multimap.apply")
        calls("multimap.MultiMap.new")
        put("multimap.coeff_rows", s("multimap.MultiMap.new").units / jobs,
            "count")
        calls("core.leibniz_differential")
        self_s("core.leibniz_differential")
        calls("core.contract")
        self_s("core.contract")
        calls("core.validate_leibniz_g_rep")
        calls("graded.circ_i")
        self_s("graded.circ_i")
        calls("graded.balavoine_bracket")
        put("graded.route_primary_s", s("graded.route_primary").total_s / jobs,
            "s")
        put("graded.route_crosscheck_s",
            s("graded.route_crosscheck").total_s / jobs, "s")
        calls("operators.check")
        self_s("operators.check")
        put("operators.validate_per_job", s("operators.validate").calls / jobs,
            "count")
        put("operators.search.found", self.found / jobs, "count")
        put("operators.search.hit_ratio",
            self.found / self.candidates if self.candidates else 0.0, "ratio")
        calls("cohomology.delta_matrix")
        self_s("cohomology.delta_matrix")
        put("cohomology.delta_columns", s("cohomology.delta_matrix").units / jobs,
            "count")
        calls("cohomology.induced_representation")
        put("deformations.self_s", s("deformations").self_s / jobs, "s")
        self_s("postleibniz.validate_post_leibniz")
        self_s("postleibniz.total_algebra")
        calls("manifest.parse_manifest")
        self_s("manifest.parse_manifest")
        put("manifest.parse_manifest.bytes",
            s("manifest.parse_manifest").units / jobs, "count")
        self_s("cli.run_command")
        put("errors.oracle_disagreements",
            s("errors.oracle_disagreements").calls / jobs, "count")
        put("errors.resource_limits", s("errors.resource_limits").calls / jobs,
            "count")
        put("trace.overhead_frac", overhead_frac, "frac")
        return {name: (value * time_scale if unit == "s" else value, unit)
                for name, (value, unit) in out.items()}


# Per-layer metrics that must be nonzero on each workload's traced run:
# they are the counters each workload exists to exercise.  The error
# counters are excluded because they count failures.
REQUIRED = {
    "cli-golden": [
        "manifest.parse_manifest.calls", "manifest.parse_manifest.self_s",
        "manifest.parse_manifest.bytes", "cli.run_command.self_s",
        "deformations.self_s", "postleibniz.validate_post_leibniz.self_s",
        "postleibniz.total_algebra.self_s", "core.validate_leibniz_g_rep.calls",
        "trace.overhead_frac",
    ],
    "cohomology-dense": [
        "fields.coerce.calls", "linalg.rref.calls", "linalg.rref.self_s",
        "linalg.rref.cells", "linalg.mul_vec.calls", "linalg.mul_vec.self_s",
        "linalg.Matrix.new.calls", "multimap.apply.calls",
        "multimap.apply.self_s", "multimap.MultiMap.new.calls",
        "multimap.coeff_rows", "core.leibniz_differential.calls",
        "core.leibniz_differential.self_s", "core.contract.calls",
        "core.contract.self_s", "operators.check.calls",
        "operators.check.self_s", "operators.validate_per_job",
        "cohomology.delta_matrix.calls", "cohomology.delta_matrix.self_s",
        "cohomology.delta_columns", "cohomology.induced_representation.calls",
        "trace.overhead_frac",
    ],
    "dgla-cross": [
        "fields.coerce.calls", "multimap.apply.calls", "multimap.apply.self_s",
        "multimap.MultiMap.new.calls", "multimap.coeff_rows",
        "graded.circ_i.calls", "graded.circ_i.self_s",
        "graded.balavoine_bracket.calls", "graded.route_primary_s",
        "graded.route_crosscheck_s", "trace.overhead_frac",
    ],
    "search-gf3": [
        "fields.coerce.calls", "fields.gf_new.calls", "linalg.mul_vec.calls",
        "linalg.mul_vec.self_s", "linalg.Matrix.new.calls",
        "core.contract.calls", "core.contract.self_s",
        "operators.check.calls", "operators.check.self_s",
        "operators.search.found", "operators.search.hit_ratio",
        "trace.overhead_frac",
    ],
}
