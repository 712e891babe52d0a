"""Pipeline benchmark of indkg: seeded inputs, timed stages, checked outputs.

    python3 perfbench/run.py --workload large-datapath --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

For each workload the command writes the seeded raw dataset, runs the
workload's rounds in a process of its own (``stages.py``), times set-up in
fresh interpreters (``setup_probe.py``) and prints every metric by name with
its unit, the attempted and failed operation counts, the counted fault and
an output digest. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same rounds with spans
installed and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_RUNS = 3
BUDGET_S = 170.0            # a run must end within 180 s

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "preprocess_s": "s",
    "extract_subgraphs_per_s": "1/s", "store_read_records_per_s": "1/s",
    "train_triples_per_s": "1/s", "tc_triples_per_s": "1/s",
    "lp_query_sides_per_s": "1/s", "meta_episodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def run_child(cmd, timeout, stdout=None):
    """Run ``cmd`` in its own session; kill the whole group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout or subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
        return proc.returncode, out
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def stage_seconds(rounds, scale=True):
    """Each stage's mean time over all its timed runs in the run, at
    reference speed (``speed.scaled``) or, with ``scale=False``, as measured."""
    return {stage: statistics.fmean(speed.scaled(*t) if scale else t[0]
                                    for r in rounds for t in r["times"][stage])
            for stage in rounds[0]["times"]}


def end_to_end(result, setup):
    """The end-to-end metrics from a run's stage times and set-up probes."""
    rounds = result["rounds"]
    stage_s = stage_seconds(rounds)
    counts = rounds[0]["counts"]
    meta_stage = "meta" if "meta" in stage_s else "train"
    return {
        "setup_s": float(statistics.median(speed.scaled(*t) for t in setup)),
        "pipeline_s": float(sum(stage_s.values())),
        "preprocess_s": float(stage_s["preprocess"]),
        "extract_subgraphs_per_s": counts["extract"] / stage_s["extract"],
        "store_read_records_per_s": counts["stats"] / stage_s["stats"],
        "train_triples_per_s": rounds[0]["train_positives"] / stage_s["train"],
        "tc_triples_per_s": counts["eval_tc"] / stage_s["eval_tc"],
        "lp_query_sides_per_s": counts["eval_lp"] / stage_s["eval_lp"],
        "meta_episodes_per_s": counts[meta_stage] / stage_s[meta_stage],
        "peak_rss_mb": float(result["peak_rss_mb"]),
    }


def run_one(name, seed, seconds, trace):
    """Run one workload; returns its result, or None when it did not finish."""
    t_begin = time.monotonic()
    w = gen.WORKLOADS[name]
    work = os.path.join(RUNS_DIR, f"{name}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        gen.write_raw(gen.make_splits(w, seed), os.path.join(work, "raw"))
        gen.write_raw(gen.make_splits(gen.PROBE, gen.PROBE_SEED), os.path.join(work, "probe"))
        with open(os.path.join(work, "stages.log"), "w") as log:
            rc, _ = run_child([sys.executable, os.path.join(HERE, "stages.py"),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--work", work],
                              BUDGET_S - 30.0 - (time.monotonic() - t_begin), stdout=log)
        result_path = os.path.join(work, "result.json")
        if rc != 0 or not os.path.isfile(result_path):
            with open(os.path.join(work, "stages.log")) as fh:
                sys.stderr.write(fh.read()[-4000:])
            print(f"error: {name}: workload process failed (exit {rc})", file=sys.stderr)
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        if result["rounds"] and not trace:
            setup, ref = [], speed.reference_s()
            for _ in range(SETUP_RUNS):
                left = BUDGET_S - (time.monotonic() - t_begin)
                rc, out = run_child([sys.executable, os.path.join(HERE, "setup_probe.py"),
                                     os.path.join(work, "out", "dataset.ikgd")], left)
                if rc != 0:
                    result["errors"].append(f"set-up probe failed: {out[-2000:]}")
                    break
                before, ref = ref, speed.reference_s()
                setup.append((float(out.strip().splitlines()[-1]), before, ref))
            if setup:
                result["metrics"] = end_to_end(result, setup)
        elif trace:
            result["metrics"] = result.get("layers", {})
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


FAULT = ("DatasetBundle builds ind_graph over the full vocabulary, so corrupt_triple "
         "and _corruption_pool draw training entities as negatives on the inductive graph")


def report(name, seed, trace, result):
    rounds = result["rounds"]
    lines = [f"workload {name}  seed {seed}  trace {trace}  rounds {len(rounds)}"]
    units = tracing.UNITS if trace else END_TO_END
    for metric, value in result.get("metrics", {}).items():
        lines.append(f"  {metric:<40} {value:>14.4f} {units[metric]}")
    if rounds:
        wall = stage_seconds(rounds, scale=False)
        lines.append("  stage means as measured, not scaled: " + ", ".join(
            f"{stage} {t:.4f} s" for stage, t in wall.items()))
        lines.append(f"  timed runs per stage: " + ", ".join(
            f"{stage} {sum(len(r['times'][stage]) for r in rounds)}" for stage in wall))
    if trace and rounds:
        lines.append(f"  traced pipeline_s {sum(stage_seconds(rounds).values()):.4f} s (subtract "
                     f"the untraced pipeline_s for the tracing overhead)")
    for label in result.get("absent", []):
        lines.append(f"  absent: {label} no longer exists; its metrics are left out")
    if rounds:
        probe = rounds[0]["probe"]
        lines.append(f"  attempted {result['attempted']}  failed {result['failed']}")
        lines.append(f"  fault, counted as failed: {FAULT}")
        lines.append(f"    fixed CLI probe per round: {probe['lp_failed']}/{probe['lp_sides']} "
                     f"LP query sides and {probe['tc_failed']}/{probe['tc_negatives']} "
                     f"TC negatives hit it")
        if "eval_outside" in result:
            ev = result["eval_outside"]
            lines.append(f"    this run's own evaluation: {ev['outside']}/{ev['negatives']} "
                         f"negatives use entities outside the scored graph (reported, not "
                         f"counted: the share varies with the seed)")
        lines.append(f"  unfiltered-pool fallbacks: {sum(r['fallbacks'] for r in rounds)}")
        lines.append(f"  output digest (first timed round): {rounds[0]['digest']}")
    errors = result["errors"]
    lines.append("  checks: passed" if not errors else f"  checks: {len(errors)} failed")
    lines += [f"    {e}" for e in errors[:20]]
    return lines


def tally(result):
    """(attempted, failed) over all rounds."""
    attempted = failed = 0
    for r in result["rounds"]:
        p = r["probe"]
        attempted += r["attempted"] + p["lp_sides"] + p["tc_negatives"]
        failed += p["lp_failed"] + p["tc_failed"]
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "indkg", "__init__.py")):
        print(f"error: no indkg package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = sorted(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, args.trace)
        if result is None:
            continue
        result["attempted"], result["failed"] = tally(result)
        results[name] = result
        print("\n".join(report(name, args.seed, args.trace, result)), flush=True)
    if len(results) != len(names) or any("metrics" not in r for r in results.values()):
        return 1
    units = tracing.UNITS if args.trace else END_TO_END
    prefix = (lambda n, m: f"{n}/{m}") if len(names) > 1 else (lambda n, m: m)
    summary = {
        "correct": all(not r["errors"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {prefix(n, m): {"value": v, "unit": units[m]}
                    for n, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
