#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny size (~10k events).

Run from the root of a LIMA checkout:

    python3 e2ebench/selftest.py

For every workload it runs e2ebench/run.py with --size tiny, traced and
untraced, and asserts that
  - every metric named in BENCHMARK.json is printed with its unit, the
    run is correct and nothing failed;
  - the analyze layers account for the traced process wall: other_ms
    (the wall less the layers, per traced run) is not negative, every
    layer in run.ANALYZE_LAYERS is timed on one of the analyze
    workloads (run.py itself rejects a layer it does not know), and one
    full-size traced run per analyze workload leaves at most
    OTHER_PCT_MAX percent of its wall outside the layers;
  - a deliberately corrupted golden (--corrupt-golden) makes the run
    incorrect with failed > 0, so the oracle is live.
Exits 0 when all hold, 1 otherwise.  Takes one to two minutes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SECONDS = "2"
# Exec, dynamic loading and exit are ~3 ms of a 300-600 ms full-size
# process (other_pct ~1-2%); a layer left untimed shows as more.
OTHER_PCT_MAX = 5.0


def result(workload, trace, *extra, size="tiny"):
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace",
           str(trace), "--size", size] + list(extra)
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    out.returncode,
                                                    out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    timed = set()  # analyze layers with a nonzero time

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = result(name, trace)
            printed = r["metrics"]
            for m in spec[key]:
                got = printed.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"] and
                       isinstance(got["value"], (int, float)),
                       "%s --trace %d prints %s [%s]" % (name, trace,
                                                         m["name"], m["unit"]))
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   "%s --trace %d correct, %d of %d failed" %
                   (name, trace, r["failed"], r["attempted"]))
            if trace and bench.WORKLOADS[name]["kind"] == "analyze":
                timed |= {n for n in bench.ANALYZE_LAYERS
                          if printed[n]["value"] > 0}
                other = printed["other_ms"]["value"]
                expect(other >= 0 and printed["traced_wall_ms"]["value"] > 0,
                       "%s other_ms %.4f >= 0" % (name, other))
        r = result(name, 0, "--corrupt-golden")
        expect(not r["correct"] and r["failed"] > 0,
               "%s with a corrupted golden: failed %d of %d" %
               (name, r["failed"], r["attempted"]))
        if bench.WORKLOADS[name]["kind"] == "analyze":
            r = result(name, 1, size="full")
            pct = r["metrics"]["other_pct"]["value"]
            expect(r["correct"] and 0 <= pct <= OTHER_PCT_MAX,
                   "%s full size: other_pct %.2f%% <= %.0f%%" %
                   (name, pct, OTHER_PCT_MAX))
    missing = sorted(set(bench.ANALYZE_LAYERS) - timed)
    expect(not missing, "every analyze layer is timed (untimed: %s)" %
           (", ".join(missing) or "none"))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
