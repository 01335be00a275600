"""Self-test of the benchmark itself, not of the library.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It checks three things and exits non-zero on the first that fails:

1. Two seeds give identical problem sizes (delta columns, candidates,
   sample arities, matrix shapes) but different input values.
2. With each expected value corrupted (a golden byte, a Betti number, the
   dgLa verdict, the search digest) every job of one pass fails, so the
   workload's failed fraction is 1.
3. The tracer rebinds a function in every module that imported it and
   restores every binding on removal.
"""

import os
import sys

import run


def check_seeds(workloads):
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls(1), cls(2)
        if a.sizes() != b.sizes():
            raise AssertionError("%s: sizes differ between seeds:\n%s\n%s"
                                 % (name, a.sizes(), b.sizes()))
        if a.values() == b.values():
            raise AssertionError("%s: seeds 1 and 2 give the same inputs"
                                 % name)
        print("seeds    %-17s sizes equal, values differ" % name)


def check_corruption(workloads):
    for name, cls in workloads.WORKLOADS.items():
        loop = run.run_passes(cls(1, corrupt=True).passes(), 0)
        if loop.failed != len(loop.jobs):
            raise AssertionError("%s: %d of %d jobs failed with corrupted "
                                 "expectations" % (name, loop.failed,
                                                   len(loop.jobs)))
        print("corrupt  %-17s failed_frac = %d/%d" % (name, loop.failed,
                                                       len(loop.jobs)))


def check_rebinding():
    import tracing
    from leibniz_rb import cohomology, core

    orig = core.leibniz_differential
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if cohomology.leibniz_differential is orig or \
                core.leibniz_differential is not cohomology.leibniz_differential:
            raise AssertionError("leibniz_differential not rebound in "
                                 "every module")
    finally:
        tracer.remove()
    if cohomology.leibniz_differential is not orig or \
            core.leibniz_differential is not orig:
        raise AssertionError("tracer did not restore leibniz_differential")
    print("tracing  rebinds in every module and restores")


def main():
    workloads = run.load_workloads()
    os.chdir(run.ROOT)
    check_seeds(workloads)
    check_rebinding()
    check_corruption(workloads)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
