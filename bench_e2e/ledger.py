#!/usr/bin/env python3
"""Records a baseline of the end-to-end benchmark for one seed.

Runs every workload of BENCHMARK.json --runs times untraced (rounds
interleave the workloads, so slow drift of the machine spreads over all
of them) and once traced, then writes the median and quartiles of each
end-to-end metric, the traced per-layer metrics, sim_digest, kernel_id,
nproc, the model hashes and the git revision to a JSON file:

  python3 bench_e2e/ledger.py --seed 7 --out bench_e2e/ledger/e2e-seed7.json

Run it from the repository root. Quartiles are those of Python's
statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import re
import statistics
import subprocess


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        ["bash", "bench_e2e/run_e2e.sh", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {lines[-1]}")
    info = {"sim_digest": None, "kernel_id": None, "models": {}}
    for line in lines:
        if m := re.match(r"sim_digest (\w+)", line):
            info["sim_digest"] = m.group(1)
        elif m := re.match(r"trace .*, kernel_id (\S+)", line):
            info["kernel_id"] = m.group(1)
        elif m := re.match(r"model (\S+) bytes=(\d+) fnv1a=(\w+)", line):
            info["models"][m.group(1)] = {"bytes": int(m.group(2)),
                                          "fnv1a": m.group(3)}
        elif m := re.match(r"bench_e2e .* nproc=(\d+) degraded_env=(\w+)",
                           line):
            info["nproc"] = int(m.group(1))
            info["degraded_env"] = m.group(2) == "true"
    return result, info


def git_rev():
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               capture_output=True, text=True,
                               check=True).stdout.strip()
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    digests = {w: set() for w in workloads}
    info = {}
    for i in range(args.runs):
        for w in workloads:
            result, info = run(w, args.seed, seconds, trace=False)
            digests[w].add(info["sim_digest"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w}: "
                  + ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items()),
                  flush=True)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    ledger = {
        "seed": args.seed,
        "runs": args.runs,
        "run_seconds": seconds,
        "git_rev": git_rev(),
        "nproc": info["nproc"],
        "degraded_env": info["degraded_env"],
        "models": info["models"],
        "workloads": {},
    }
    for w in workloads:
        if len(digests[w]) != 1:
            raise SystemExit(f"{w}: sim_digest differs between runs")
        traced, tinfo = run(w, args.seed, seconds, trace=True)
        if tinfo["sim_digest"] not in digests[w]:
            raise SystemExit(f"{w}: traced run saw another sim_digest")
        end_to_end = {}
        for name, xs in values[w].items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            end_to_end[name] = {
                "unit": units[name],
                "median": median,
                "q1": q1,
                "q3": q3,
                "iqr_over_median": (q3 - q1) / median,
                "values": xs,
            }
        ledger["workloads"][w] = {
            "sim_digest": tinfo["sim_digest"],
            "kernel_id": tinfo["kernel_id"],
            "end_to_end": end_to_end,
            "per_layer": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in traced["metrics"].items()},
        }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
