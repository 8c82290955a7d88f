"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median and the spread (q3 - q1) / median against
the bound in BENCHMARK.json.  With --compare, it also reports how far each
median moved from an earlier set of runs saved with --save.

    python3 perfbench/steadiness.py --workload attack-fresh --seeds 1-5
    python3 perfbench/steadiness.py --seeds 11-20 --save first.json
    python3 perfbench/steadiness.py --seeds 21-30 --compare first.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, summary


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout, file=sys.stderr)
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    return runs


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default every workload")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    medians = {}
    for name in names:
        runs = collect(name, args.seeds, args.seconds)
        medians[name] = {}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            s = summary(r[key] for r in runs)
            spread = (s["q3"] - s["q1"]) / s["median"]
            medians[name][key] = s["median"]
            line = (f"{name} {key}: median {s['median']:.6g} spread {spread:.3f} "
                    f"(bound {bound}, a third {bound / 3:.3f})")
            if key in earlier.get(name, {}):
                before = earlier[name][key]
                worse = (before - s["median"] if metric["better"] == "higher"
                         else s["median"] - before) / before
                line += f"; worse than the earlier median by {worse:+.3f}"
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(medians, indent=2) + "\n")


if __name__ == "__main__":
    main()
