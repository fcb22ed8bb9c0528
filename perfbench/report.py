"""All four koszul-lab workloads in one command, and the determinism check.

    python3 perfbench/report.py [--seed 1] [--seconds 13] [--trace]
    python3 perfbench/report.py --check [--seed 1] [--seconds 13]

Without --check, runs run.py once per workload and prints its table: every
end-to-end metric with its unit (with --trace, every per-layer metric), each
row with the base it was measured on, and the failed operations.

--check is the determinism self-check: for every workload, two traced runs
with --seed must give identical call counts and identical verdicts, and one
untraced run on the held-out seed must complete.  Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("admissibility", "resolve", "koszul", "cli")
# Never used while the benchmark was tuned; confirm a claimed gain on it too.
HELD_OUT_SEED = 90017


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(int(trace))],
                          stdout=subprocess.PIPE, text=True, cwd=os.path.dirname(HERE))
    if proc.returncode:
        sys.exit(f"run.py failed on {workload} (exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    table = [ln for ln in lines[:-1] if ln.startswith("#")]
    digests = {ln.split()[1]: ln.split()[-1] for ln in table if " digest " in ln}
    return table, digests, json.loads(lines[-1])


def check(seed, seconds):
    ok = True
    for w in WORKLOADS:
        _, first, r1 = run(w, seed, seconds, True)
        _, second, r2 = run(w, seed, seconds, True)
        same = first == second and r1["correct"] and r2["correct"]
        ok &= same
        print(f"{w:<14} traced twice, seed {seed}: calls {first['calls']} / {second['calls']}, "
              f"verdicts {first['verdicts']} / {second['verdicts']}: {'same' if same else 'DIFFERENT'}")
        _, _, held = run(w, HELD_OUT_SEED, seconds, False)
        print(f"{w:<14} held-out seed {HELD_OUT_SEED}: {held['attempted']} ops, "
              f"{held['failed']} failed")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=13)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    a = ap.parse_args()
    if a.check:
        sys.exit(0 if check(a.seed, a.seconds) else 1)
    for w in WORKLOADS:
        table, _, r = run(w, a.seed, a.seconds, a.trace)
        print("\n".join(ln for ln in table if " digest " not in ln))
        print(f"# attempted {r['attempted']}, failed {r['failed']} "
              f"(fail_share {r['failed'] / r['attempted']:.4f}), correct {r['correct']}\n")


if __name__ == "__main__":
    main()
