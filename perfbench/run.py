"""koszul-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload admissibility --seed 1 --seconds 13 --trace 0

Run from the root of a checkout; the program is imported from its src/.
The inputs are generated from the seed by gen.py in a process of their own,
then timed in fresh single-threaded worker processes (worker.py).  Every
operation is checked against the answer its input was built to have.  Times
are in nominal seconds, scaled by a host probe (host.py).

--trace 0 measures the end-to-end metrics: ops_per_s, op_p50_s, op_p90_s,
setup_s, peak_rss_mb and pass_share.  --trace 1 runs a fixed prefix of the
operations twice, untraced and then with the layer wrappers of tracer.py,
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it are a table for people.
See perfbench/NOTES.md for the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from host import probe, to_nominal

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("admissibility", "resolve", "koszul", "cli")

SETUP_SAMPLES = 12       # set-up processes per run; setup_s is their median
SETUP_OPS = 40           # a library set-up parses the documents of this many operations
# Each run times a fixed list of operations, the first ones of its seed, in
# one fresh worker, so that two runs of one seed time the same work.  The
# list holds this many operations per second of --seconds, and at least 100,
# so that op_p90_s has ten beyond it.  On a 2-vCPU x86 VM (Xeon, 2 GHz) a
# run of --seconds 13, set-up included, took 21-33 s of wall time.
RUN_OPS_PER_S = {"admissibility": 10.0, "resolve": 8.5, "koszul": 13.0, "cli": 5.5}
# The traced run times its first operations twice, untraced and traced,
# in about --seconds together.
TRACE_OPS_PER_S = {"admissibility": 3.0, "resolve": 2.4, "koszul": 5.0, "cli": 2.0}


def worker_env():
    # A fixed hash seed makes set iteration, and so the work done, repeat
    # exactly from run to run.
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)


def inputs(workload, seed):
    """Generate, once per checkout and version of the generator, the
    documents and operations of a seed."""
    h = hashlib.sha256()
    for name in ("gen.py", "polys.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            h.update(fh.read())
    path = os.path.join(WORK, f"{workload}-{seed}-{h.hexdigest()[:12]}")
    if not os.path.exists(os.path.join(path, "ops.json")):
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                        "--seed", str(seed), "--out", tmp], check=True)
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    return path


def spawn(args):
    """Start a worker; return (process, seconds from spawn to its READY line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC] + args,
                            stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, out):
    proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def cli_setup(path, ops):
    """Seconds from spawn to exit of the cheapest CLI invocation, `validate`
    on the first validate document of the list: interpreter start, imports
    of koszul_lab.cli and click, loading the document through the CLI, and a
    commuting-square check that is trivial at |S| = 2."""
    op = next(op for op in ops if op["call"] == "validate")
    doc = os.path.join(path, "docs", op["doc"] + ".json")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "koszul_lab.cli", "validate", "--input", doc],
                          env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or json.loads(proc.stdout).get("verdict") is not True:
        raise RuntimeError(f"CLI set-up sample failed (exit {proc.returncode})")
    return seconds


def timed_run(path, workload, ops, n):
    """Time SETUP_SAMPLES set-ups, each in a fresh process, then the first n
    operations in one fresh worker.  Returns the worker's record, the set-up
    times and the host probes taken beside the set-ups.  On cli a set-up is
    one CLI cold start (cli_setup), since there each operation is a child
    process that loads its own document."""
    setups, probes = [], []
    for _ in range(SETUP_SAMPLES):
        probes.append(probe())
        if workload == "cli":
            setups.append(cli_setup(path, ops))
        else:
            proc, ready = spawn(["--dir", path, "--max-ops", str(SETUP_OPS), "--setup-only"])
            proc.wait()
            setups.append(ready)
    out = os.path.join(path, "result.json")
    proc, _ = spawn(["--dir", path, "--max-ops", str(n), "--out", out])
    return finish(proc, out), setups, probes


def known_defect(op, status):
    """The documented wrong verdict of ROADMAP item 1: spherical_faces calls
    a Koszul cube, admissible by theorem, not admissible.  It counts as a
    failed operation; any other failure makes the run incorrect."""
    return (status == "wrong" and op["call"] == "is_admissible"
            and op["args"]["strategy"] == "spherical_faces" and op["expect"]["verdict"] is True)


def traced_run(path, workload, seconds):
    """The first K operations untraced, then the same K traced, each in a
    fresh worker.  K depends only on the workload and --seconds, so the call
    counts of two runs with one seed must be equal."""
    k = max(1, round(TRACE_OPS_PER_S[workload] * seconds))
    out = os.path.join(path, "result.json")
    plain = finish(spawn(["--dir", path, "--out", out, "--max-ops", str(k)])[0], out)
    trace = os.path.join(path, "trace.json")
    for name in os.listdir(path):
        if name.startswith("trace.json"):
            os.remove(os.path.join(path, name))
    traced = finish(spawn(["--dir", path, "--out", out, "--max-ops", str(k),
                           "--trace", trace])[0], out)
    if workload == "cli":
        parts = [os.path.join(path, f"trace.json.{i}") for i in range(len(traced["results"]))]
    else:
        parts = [trace]
    return plain, traced, merge_traces(parts, os.path.join(path, "spans.json"))


def merge_traces(paths, spans_out):
    """Sum the records of one or more traced processes; keep their spans."""
    total = {"calls": {}, "layer_calls": {}, "self_s": {}, "group_calls": {}, "group_s": {},
             "import_s": 0.0}
    spans = []
    for p in paths:
        with open(p) as fh:
            doc = json.load(fh)
        for part in ("calls", "layer_calls", "self_s", "group_calls", "group_s"):
            for key, v in doc[part].items():
                total[part][key] = total[part].get(key, 0) + v
        total["import_s"] += doc.get("import_s", 0.0)
        spans.append({"names": doc["span_names"], "spans": doc["spans"]})
    with open(spans_out, "w") as fh:
        json.dump(spans, fh)
    return total


def layer_metrics(t, overhead):
    c, s = "count", "s"
    m = {}
    for layer in ("groebner", "arith", "modcalc", "cube", "koszul", "resolve"):
        m[f"{layer}.self_s"] = (t["self_s"][layer], s)
        m[f"{layer}.calls"] = (t["layer_calls"][layer], c)
    for group in ("groebner.syzygies", "groebner.nf", "groebner.ideal_ops",
                  "modcalc.graph_coords"):
        m[f"{group}.calls"] = (t["group_calls"][group], c)
        m[f"{group}.s"] = (t["group_s"][group], s)
    for group in ("arith.parse", "modcalc.compose", "modcalc.homology", "cube.mod_injective",
                  "cube.h0", "cube.total_complex", "koszul.a_sequence", "resolve.lift"):
        m[f"{group}.calls"] = (t["group_calls"][group], c)
    for group in ("modcalc.fitting", "resolve.check"):
        m[f"{group}.s"] = (t["group_s"][group], s)
    m["cli.import_s"] = (t["import_s"], s)
    m["cli.self_s"] = (t["self_s"]["cli"], s)
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def nominal(run, window=3.0):
    """Operation times of a worker run in nominal seconds: each wall time
    scaled by the median probe sample taken within `window` seconds of the
    operation's start (at least the three nearest)."""
    probes = run["probes"]
    out = []
    for _, wall, _, start in run["results"]:
        near = sorted(probes, key=lambda p: abs(p[0] - start))
        local = [h for t, h in near if abs(t - start) <= window]
        if len(local) < 3:
            local = [h for _, h in near[:3]]
        out.append(to_nominal(wall, statistics.median(local)))
    return out


def ops_for(rate, seconds):
    return max(100, round(rate * seconds))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def selected(metrics, key):
    """The metrics BENCHMARK.json lists under `key`, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)[key]]
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def main():
    ap = argparse.ArgumentParser(description="koszul-lab benchmark, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "koszul_lab", "__init__.py")):
        sys.exit(f"no koszul_lab package under {SRC}: run from a koszul-lab checkout")

    path = inputs(a.workload, a.seed)
    with open(os.path.join(path, "ops.json")) as fh:
        ops = json.load(fh)["ops"]
    if a.trace:
        plain, traced, t = traced_run(path, a.workload, a.seconds)
        results = traced["results"]
        metrics = layer_metrics(t, sum(nominal(traced)) / sum(nominal(plain)))
        # tracing must not change a verdict
        correct = [r[::2] for r in plain["results"]] == [r[::2] for r in results]
        base = (f"first {len(results)} ops of seed {a.seed}, traced"
                + (", one process per op" if a.workload == "cli" else " in one process"))
        print(f"# calls digest {digest(t['calls'])}")
    else:
        n = ops_for(RUN_OPS_PER_S[a.workload], a.seconds)
        res, setups, setup_probes = timed_run(path, a.workload, ops, n)
        results, rss = res["results"], res["peak_rss_mb"]
        wall = [r[1] for r in results]
        lat = nominal(res)
        host_s = statistics.median(setup_probes + [h for _, h in res["probes"]])
        failed = sum(r[2] != "ok" for r in results)
        metrics = {
            "ops_per_s": (len(results) / sum(lat), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_p90_s": (percentile(lat, 90), "s"),
            "setup_s": (to_nominal(statistics.median(setups), host_s), "s"),
            "peak_rss_mb": (rss, "MB"),
            "pass_share": (1 - failed / len(results), "share"),
            "wall.ops_per_s": (len(results) / sum(wall), "1/s"),
            "wall.op_p50_s": (statistics.median(wall), "s"),
            "wall.op_p90_s": (percentile(wall, 90), "s"),
            "wall.setup_s": (statistics.median(setups), "s"),
            "host.probe_s": (statistics.median(h for _, h in res["probes"]), "s"),
        }
        correct = True
        base = (f"{len(results)} ops of seed {a.seed} in {res['loop_s']:.1f} s; "
                f"setup: median of {len(setups)}")
    failed = [r for r in results if r[2] != "ok"]
    correct = correct and all(known_defect(ops[r[0]], r[2]) for r in failed)
    print(f"# {a.workload}, seed {a.seed}: {base}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<28} {value:>14.6g} {unit:<6} [{a.workload}, {base.split(';')[0]}]")
    print(f"# failed {len(failed)} of {len(results)}"
          + "".join(f", op {r[0]} {r[2]}" for r in failed[:12]) + (" ..." if len(failed) > 12 else ""))
    print(f"# verdicts digest {digest([[r[0], r[2]] for r in results])}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": selected(metrics, "per_layer" if a.trace else "end_to_end"),
    }))


if __name__ == "__main__":
    main()
