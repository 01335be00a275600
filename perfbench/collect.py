"""Run the benchmark over several seeds and summarise the spread.

Usage, from the root of a checkout::

    python3 perfbench/collect.py --seeds 1-10 [--workloads cli-golden,...]
        [--trace-seed 1] [--out perfbench/baseline.json]

For each workload it runs ``run.py`` once per seed with the command and
``run_seconds`` of ``BENCHMARK.json``, and prints, for each end-to-end
metric, the median, the quartiles and the spread (distance between the
quartiles as a share of the median) next to the metric's bound.  With
``--trace-seed`` it adds one traced run per workload and prints its
per-layer table.  ``--out`` writes everything as JSON, together with the
reference points the per-layer counts are compared against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, per-layer metric, reference value, relative tolerance).  The
# lifted share is the cross-check route's share of the time of both routes;
# as a share of the whole traced job it reads higher, because tracing slows
# the lifted route, which makes most of the traced calls, the most.
REFERENCES = [
    ("dgla-cross", "graded.lifted_share", 0.80, 0.10),
    ("cohomology-dense", "operators.validate_per_job", 235, 0.0),
    ("cohomology-dense", "cohomology.induced_representation.calls", 117, 0.0),
    ("search-gf3", "fields.gf_new.calls", 30.7e6, 0.01),
]


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("collect: %s failed (exit %d):\n%s" % (" ".join(cmd),
                                                       proc.returncode,
                                                       proc.stderr))
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds,
           "end_to_end": {}, "per_layer": {}, "meta": {}, "references": []}
    for name in names:
        runs = [run_once(bench, name, seed, 0) for seed in seeds]
        out["meta"][name] = [meta for meta, _ in runs]
        table = {}
        print("%s (%d seeds)" % (name, len(seeds)))
        for metric in bench["end_to_end"]:
            values = [res["metrics"][metric["name"]]["value"]
                      for _, res in runs]
            row = spread(values)
            row["bound"] = metric["bound"]
            table[metric["name"]] = row
            print("  %-12s median %-12.6g spread %6.3f  bound/3 %6.3f%s"
                  % (metric["name"], row["median"], row["spread"],
                     metric["bound"] / 3,
                     "" if row["spread"] < metric["bound"] / 3 else "  WIDE"))
        out["end_to_end"][name] = table
        sys.stdout.flush()
    if args.trace_seed is not None:
        for name in names:
            meta, res = run_once(bench, name, args.trace_seed, 1)
            layer = {k: v["value"] for k, v in res["metrics"].items()}
            routes = (layer["graded.route_primary_s"]
                      + layer["graded.route_crosscheck_s"])
            layer["graded.lifted_share"] = (
                layer["graded.route_crosscheck_s"] / routes if routes else 0.0)
            out["per_layer"][name] = layer
            print("%s traced (seed %d, %d jobs)" % (name, args.trace_seed,
                                                    meta["jobs"]))
            for k, v in layer.items():
                if v:
                    print("  %-42s %.6g" % (k, v))
        for workload, metric, ref, tol in REFERENCES:
            if workload not in out["per_layer"]:
                continue
            got = out["per_layer"][workload][metric]
            agrees = abs(got - ref) <= tol * ref
            out["references"].append({"workload": workload, "metric": metric,
                                      "reference": ref, "measured": got,
                                      "agrees": agrees})
            print("reference %-17s %-40s %.6g vs %.6g %s"
                  % (workload, metric, got, ref, "ok" if agrees else "DIFFERS"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
