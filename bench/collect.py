"""Run the benchmark over several seeds and summarise it as one trajectory point.

    python3 bench/collect.py --seeds 1-10 --out bench/trajectory/NN_label.json

For each workload: ten (or --seeds) untraced runs give each end-to-end
metric's median, quartiles and spread (interquartile range over median, the
figure BENCHMARK.json's bounds are compared against); one traced run on the
first seed gives the per-layer metrics and the tracing overhead. Runs go
one at a time, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(manifest: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {"run_seconds": manifest["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in manifest["workloads"]):
        results = []
        for seed in seeds:
            env, result = run_once(manifest, workload, seed, 0)
            ok &= result["correct"]
            results.append(result)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = s
            steady = s["spread"] <= bounds[name] / 3
            print(
                f"{workload:14s} {name:12s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                f" (bound {bounds[name]}){'' if steady else '  <-- above a third of the bound'}"
            )
        env, traced = run_once(manifest, workload, seeds[0], 1)
        ok &= traced["correct"]
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer"] = layers
        print(f"{workload:14s} tracing overhead {layers['bench.trace_overhead_pct']:+.2f}%")
        summary["workloads"][workload] = entry
        summary["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print("all outputs correct" if ok else "SOME OUTPUTS FAILED THEIR CHECKS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
