"""One timed process of the koszul-lab benchmark.

    python3 perfbench/worker.py --src SRC --dir DIR --max-ops N
        [--out FILE] [--trace FILE] [--setup-only]

Set-up imports koszul_lab from SRC and parses the documents of the first N
operations of DIR/ops.json into program objects, then prints READY.  On the
cli workload each operation is a child process that loads its own document,
so set-up there only reads the list of operations.  The worker then runs
those operations in order, one at a time, checking each result against its
known answer, and writes the results to FILE as JSON: per operation its id,
wall time, status and start time.  Between operations,
at most every PROBE_EVERY_S, it times the host probe of host.py, outside
any operation, and writes those samples too.
With --trace FILE the layer wrappers of tracer.py are installed before
set-up and their record is written to that file.

The Groebner cache of the program is global to the process, so the first
pass over a set of inputs is the one a user waits for; a worker never runs
an input twice.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from host import probe

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_EVERY_S = 0.25
CLI_TIMEOUT_S = 60       # a hung invocation fails its operation


def read_ring(K, d):
    field = d["field"]
    return K.RingSpec("Q" if field == "Q" else int(field["Fp"]), tuple(d["vars"]),
                      d.get("order", "grevlex"))


def subsets(labels):
    subs = [frozenset()]
    for lab in labels:
        subs += [s | {lab} for s in subs]
    return subs


def read_matrix(K, R, rows, target, source):
    return K.FreeMap(R, [[K.parse_poly(s, R) for s in row] for row in rows],
                     target_rank=target, source_rank=source)


def read_boundaries(K, R, labels, bd, rank):
    return {(T, k): read_matrix(K, R, bd[f"{K.subset_key(T)}|{k}"], rank(T - {k}), rank(T))
            for T in subsets(labels) for k in sorted(T)}


def read_cube(K, R, d):
    labels = tuple(d["S"])
    ranks = {T: d["vertices"][K.subset_key(T)] for T in subsets(labels)}
    return K.Cube(R, labels, ranks, read_boundaries(K, R, labels, d["boundaries"], ranks.get))


def read_modcube(K, R, d):
    labels = tuple(d["S"])
    verts = {}
    for T in subsets(labels):
        v = d["vertices"][K.subset_key(T)]
        gens = [tuple(K.parse_poly(s, R) for s in row) for row in v.get("relations", [])]
        verts[T] = K.FPModule(R, v["rank"], K.SubmoduleBasis(R, v["rank"], gens))
    bd = read_boundaries(K, R, labels, d["boundaries"], lambda T: verts[T].rank)
    return K.ModCube(R, labels, verts, bd)


def read_doc(K, doc):
    """Program objects for one document: whatever of cube, sequence,
    cofactors, complex and resolution it holds."""
    R = read_ring(K, doc["ring"])
    out = {}
    if "cube" in doc:
        out["cube"] = read_cube(K, R, doc["cube"])
    for k in ("sequence", "cofactors"):
        if k in doc:
            out[k] = [K.parse_poly(s, R) for s in doc[k]]
    if "complex" in doc:
        c = doc["complex"]
        ranks = c["ranks"]
        out["complex"] = K.Complex(R, ranks, [
            read_matrix(K, R, rows, ranks[i], ranks[i + 1])
            for i, rows in enumerate(c["differentials"])])
    if "resolution" in doc:
        r = doc["resolution"]
        targets = [read_modcube(K, R, t) for t in r["targets"]]
        connecting = []
        for i, w in enumerate(r["connecting"]):
            src, tgt = targets[i], targets[i + 1]
            maps = {}
            for key, rows in w.items():
                T = frozenset(s for s in key.split(",") if s)
                maps[T] = read_matrix(K, R, rows, tgt.vertex(T).rank, src.vertex(T).rank)
            connecting.append(maps)
        fs = {s: K.parse_poly(p, R) for s, p in r["fs"].items()}
        out["resolution"] = K.ResolutionInput(fs, r["U"], r["V"], targets, connecting)
    return out


# ---------------------------------------------------------------------------
# operations: each returns True when the answer matches the known one
# ---------------------------------------------------------------------------

def run_library_op(K, op, obj):
    call, expect = op["call"], op["expect"]
    if call == "is_admissible":
        return K.is_admissible(obj["cube"], strategy=op["args"]["strategy"]).ok == expect["verdict"]
    if call == "koszul_resolve":
        return dict(K.koszul_resolve(obj["resolution"]).exponents) == expect["exponents"]
    if call == "is_koszul_cube":
        return K.is_koszul_cube(obj["cube"], obj["sequence"]).is_koszul == expect["verdict"]
    if call == "det_is_a_sequence":
        return K.det_is_a_sequence(obj["cube"]) == expect["verdict"]
    if call == "verify_weight_decomposition":
        return K.verify_weight_decomposition(obj["cube"], obj["sequence"]).ok == expect["verdict"]
    if call == "is_A_sequence":
        rep = K.is_A_sequence(obj["sequence"])
        return bool(rep.a_sequence) == expect["verdict"] and rep.regular == expect["regular"]
    if call == "factor_sequence_check":
        rep = K.factor_sequence_check(obj["sequence"], obj["cofactors"])
        return (rep.ok == expect["verdict"]
                and rep.info["hypothesis_a_sequence"] == expect["hypothesis_a_sequence"]
                and rep.info["conclusion_a_sequence"] == expect["conclusion_a_sequence"])
    if call == "be_acyclicity":
        return K.be_acyclicity(obj["complex"]).ok == expect["verdict"]
    raise ValueError(f"unknown operation {call!r}")


def cli_command(op, doc_path, trace_file):
    if trace_file:
        head = [sys.executable, os.path.join(HERE, "tracer.py"), "--out", trace_file, "--"]
    else:
        head = [sys.executable, "-m", "koszul_lab.cli"]
    return head + [op["call"], "--input", doc_path] + op["args"]["argv"]


def check_cli(op, proc):
    """Does the envelope carry the known verdict (and details, where known)?"""
    expect = op["expect"]
    try:
        env = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return False
    if env.get("verdict") != expect["verdict"]:
        return False
    details = env.get("details", {})
    if "zero_spherical" in expect and details.get("zero_spherical") != expect["zero_spherical"]:
        return False
    if "exponents" in expect and details.get("exponents") != expect["exponents"]:
        return False
    return True


def maxrss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--max-ops", type=int, required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args()

    with open(os.path.join(a.dir, "ops.json")) as fh:
        plan = json.load(fh)
    cli = plan["workload"] == "cli"
    ops = plan["ops"][:a.max_ops]
    rec = None
    objects = {}
    if not cli:
        sys.path.insert(0, a.src)
        import koszul_lab as K
        if a.trace:
            from tracer import Recorder, install
            rec = Recorder()
            install(rec)
        for op in ops:
            if op["doc"] not in objects:
                with open(os.path.join(a.dir, "docs", op["doc"] + ".json")) as fh:
                    objects[op["doc"]] = read_doc(K, json.load(fh))
    print("READY", flush=True)
    if a.setup_only:
        return

    env = dict(os.environ, PYTHONPATH=a.src)
    results = []
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    clock = time.perf_counter
    probes = []
    t_loop = clock()
    for i, op in enumerate(ops):
        if not probes or clock() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append([clock(), probe()])
        status = "ok"
        if cli:
            doc_path = os.path.join(a.dir, "docs", op["doc"] + ".json")
            trace_file = a.trace and f"{a.trace}.{i}"
            t0 = clock()
            try:
                proc = subprocess.run(cli_command(op, doc_path, trace_file), env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            t1 = clock()
            if proc is None:
                status = "timeout"
            elif proc.returncode != op["expect"]["exit"]:
                status = f"exit {proc.returncode}"
            elif not check_cli(op, proc):
                status = "wrong"
        else:
            if rec is not None:
                rec.op = op["id"]
            t0 = clock()
            try:
                good = run_library_op(K, op, objects[op["doc"]])
            except Exception as e:  # a raising op is a failed op, never a skipped one
                good = False
                status = "raised " + type(e).__name__
            t1 = clock()
            if not good and status == "ok":
                status = "wrong"
        results.append([op["id"], t1 - t0, status, t0])
    loop_s = clock() - t_loop
    out = {"results": results, "probes": probes, "loop_s": loop_s,
           "peak_rss_mb": maxrss_mb(who)}
    if rec is not None:
        rec.dump(a.trace)
    with open(a.out, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
