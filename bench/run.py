"""rootrec benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command runs in a fresh
``python3 bench/child.py`` process with ``--workers 1`` and ``src`` on
PYTHONPATH, so no cache or counter of the package survives from one
command to the next.  Every command's output files are checked (see
``workloads.check_output``); a command that exits non-zero or fails its
check counts all of its trials as failed.

With ``--trace 0`` the run alternates a one-trial command (the set-up
cost) with a full command for about S seconds, at least ``MIN_REPS``
times.  It reports the trials completed per second over all full
commands, and medians of set-up time and peak memory.  Both times are
scaled to a reference host speed: a fixed probe (``probe``) runs before
and after every command, and the run's times are divided by the median
probe time over ``REF_PROBE_S``.  On a shared host, co-tenants slow
everything this process runs by up to 1.9 times, in episodes that come
and go over seconds to tens of minutes; the probe sees the slowdown of
the commands around it, so the ratio removes most of it (README.md,
"Host speed").  The runner and its commands are pinned to one core, so
that probe and commands share it.  The unscaled figures are printed on
a comment line.  With
``--trace 1`` it alternates an untraced and a traced full command and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object;
the lines before it say what ran, on what machine, and each metric by
name and unit.  Scratch files go to ``.bench_work/<workload>`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, CheckError, Workload, check_output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_REPS = 3
# a run must end within 180 s; stop starting commands after this
RUN_CAP_S = 130.0
COMMAND_TIMEOUT_S = 170.0
# the probe's time on an undisturbed host: about its time on the 2-core
# Xeon VM the benchmark was written on when no co-tenant slowed it
REF_PROBE_S = 0.1

END_TO_END = [("trials_per_s", "trials/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB")]

# (metric, unit, layer, field): field is read from the span summary of
# ``layer``; metrics without a layer are computed in ``layer_metrics``
PER_LAYER = [
    ("tree.generate_family.calls", "count", "tree.generate_family", "calls"),
    ("tree.generate_family.s", "s", "tree.generate_family", "s"),
    ("tree.spread.s", "s", "tree.spread", "s"),
    ("tree.restrict.s", "s", "tree.restrict", "s"),
    ("tree.chosen_leaves.s", "s", "tree.chosen_leaves", "s"),
    ("ctmc.transition_matrix.calls", "count", "ctmc.transition_matrix",
     "calls"),
    ("ctmc.transition_matrix.s", "s", "ctmc.transition_matrix", "s"),
    ("ctmc.transition_matrix.distinct_ratio", "ratio", None, None),
    ("treechain.simulate.calls", "count", "treechain.simulate", "calls"),
    ("treechain.simulate.s", "s", "treechain.simulate", "s"),
    ("treechain.simulate.self_s", "s", "treechain.simulate", "self_s"),
    ("treechain.simulate_batch.calls", "count", "treechain.simulate_batch",
     "calls"),
    ("treechain.simulate_batch.self_s", "s", "treechain.simulate_batch",
     "self_s"),
    ("treechain.exact_leaf_law.s", "s", "treechain.exact_leaf_law", "s"),
    ("treechain.exact_leaf_law.outcomes", "count", None, None),
    ("estimators.frequency_estimate.calls", "count",
     "estimators.frequency_estimate", "calls"),
    ("estimators.frequency_estimate.self_s", "s",
     "estimators.frequency_estimate", "self_s"),
    ("estimators.uniform_chain_estimate.self_s", "s",
     "estimators.uniform_chain_estimate", "self_s"),
    ("estimators.map_estimate.s", "s", "estimators.map_estimate", "s"),
    ("estimators.fallback_ratio", "ratio", None, None),
    ("estimators.exclusivity.invocations", "count", None, None),
    ("estimators.exclusivity.violations", "count", None, None),
    ("bounds.s", "s", None, None),
    ("tkf91.tkf91_evolve.calls", "count", "tkf91.tkf91_evolve", "calls"),
    ("tkf91.tkf91_evolve.s", "s", "tkf91.tkf91_evolve", "s"),
    ("tkf91.mc_rows.s", "s", "tkf91.mc_rows", "s"),
    ("tkf91.top_states.s", "s", "tkf91.top_states", "s"),
    ("cli.main.s", "s", "cli.main", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.run_trials.s", "s", "cli.run_trials", "s"),
    ("cli.output_bytes", "bytes", None, None),
    ("trace.wall_s", "s", None, None),
    ("trace.untraced_wall_s", "s", None, None),
    ("trace.overhead_s", "s", None, None),
    ("trace.import_s", "s", None, None),
    ("trace.self_sum_s", "s", None, None),
]

BOUND_LAYERS = ("bounds.thm2_general_bound", "bounds.prop54_uniform_bound",
                "bounds.wilson_interval")


@dataclass
class Outcome:
    """One command: its trials, timings and what its check found."""

    trials: int
    ok: bool = False
    message: str = ""
    wall_s: float = 0.0
    child: dict = field(default_factory=dict)
    checked: dict = field(default_factory=dict)
    output_bytes: int = 0


def probe() -> float:
    """Time a fixed piece of work in the program's own mix: interpreted
    loops over small Python containers, scalar RNG draws and 2x2 numpy
    products.  It never calls the package, so a change to the program
    leaves it alone.  About 0.1-0.2 s."""
    start = perf_counter()
    rng = np.random.default_rng(12345)
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    acc = np.eye(2)
    counts: dict = {}
    total = 0
    for i in range(12000):
        acc = acc @ (np.eye(2) + q * rng.random())
        acc /= acc.sum()
        for j in range(25):
            total += (i * j) % 7
            counts[j] = counts.get(j, 0) + total % 3
    return perf_counter() - start


def run_command(w: Workload, seed: int, trials: int, work: Path,
                traced: bool, timeout: float) -> Outcome:
    """Write the config, run the command in a fresh process, check it."""
    tag = f"{'traced' if traced else 'plain'}-{trials}"
    output = str(work / f"out-{tag}")
    cfg_path = work / f"config-{tag}.json"
    result_path = work / f"result-{tag}.json"
    cfg_path.write_text(json.dumps(w.config(seed, trials, output)))
    for p in [result_path, *map(Path, w.output_files(output))]:
        p.unlink(missing_ok=True)

    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path)]
    if traced:
        cmd += ["--trace", str(work / f"spans-{w.name}.csv")]
    cmd += ["--", w.command, str(cfg_path), "--workers", "1"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("ROOTREC_WORKERS", None)
    out = Outcome(trials=w.trials_done(trials))
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        out.message = f"timed out after {timeout:.0f} s"
        return out
    finally:
        out.wall_s = perf_counter() - start
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        out.message = f"child exited {proc.returncode}: {tail}"
        return out
    out.child = json.loads(result_path.read_text())
    out.wall_s = out.child["wall_s"]
    if not Path(out.child["package"]).resolve().is_relative_to(ROOT / "src"):
        out.message = f"measured {out.child['package']}, not this checkout"
        return out
    if out.child["exit_code"] != 0:
        out.message = (f"rootrec exited {out.child['exit_code']}: "
                       f"{proc.stderr.strip()}")
        return out
    try:
        out.checked = check_output(w, trials, output)
    except (CheckError, OSError, ValueError, KeyError) as e:
        out.message = f"output check failed: {e}"
        return out
    out.output_bytes = sum(os.path.getsize(p) for p in w.output_files(output))
    out.ok = True
    return out


def layer_metrics(traced: Outcome, plain: list) -> dict:
    """Per-layer metrics of one traced command; layers never called read 0."""
    child = traced.child
    layers, counters = child["layers"], child["counters"]
    values = {}
    for name, _, layer, fld in PER_LAYER:
        if layer is not None:
            values[name] = layers.get(layer, {}).get(fld, 0)
    tm_calls = values["ctmc.transition_matrix.calls"]
    values["ctmc.transition_matrix.distinct_ratio"] = (
        counters["ctmc.transition_matrix.distinct"] / tm_calls
        if tm_calls else 0.0)
    values["treechain.exact_leaf_law.outcomes"] = counters.get(
        "treechain.exact_leaf_law.outcomes", 0)
    fallbacks = traced.checked.get("fallbacks",
                                   counters.get("estimators.fallbacks", 0))
    values["estimators.fallback_ratio"] = fallbacks / traced.trials
    values["estimators.exclusivity.invocations"] = (
        child["exclusivity"]["invocations"])
    values["estimators.exclusivity.violations"] = (
        child["exclusivity"]["violations"])
    values["bounds.s"] = sum(layers.get(b, {}).get("s", 0.0)
                             for b in BOUND_LAYERS)
    values["cli.output_bytes"] = traced.output_bytes
    values["trace.wall_s"] = traced.wall_s
    values["trace.untraced_wall_s"] = statistics.median(
        o.wall_s for o in plain)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])
    values["trace.import_s"] = child["import_s"]
    values["trace.self_sum_s"] = sum(row["self_s"] for row in layers.values())
    return values


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "loadavg_start": load}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 trials: int | None = None, min_reps: int = MIN_REPS):
    """Run one workload; return (result object, report lines)."""
    trials = trials or w.trials
    work = ROOT / ".bench_work" / w.name
    work.mkdir(parents=True, exist_ok=True)
    info = {"workload": w.name, "command": w.command, "seed": seed,
            "seconds": seconds, "trace": int(trace), **machine_info(),
            "trials_per_command": trials, "setup_trials": 1}
    probe()                     # warm-up: imports and caches
    start = perf_counter()
    # pairs of commands: first is one-trial (trace 0) or untraced (trace 1),
    # second is full (trace 0) or traced (trace 1), with a probe before
    # every command and after the last.  Stop before a pair that would
    # end past the deadline if it took as long as the longest pair so
    # far, once min_reps pairs have run.
    first, second = [], []
    first_trials, traced = (trials, True) if trace else (1, False)
    probes = [probe()]
    pair_s = 0.0
    while True:
        elapsed = perf_counter() - start
        if len(second) >= min_reps and elapsed + pair_s > seconds:
            break
        if len(second) >= 1 and elapsed >= RUN_CAP_S:
            break
        first.append(run_command(w, seed, first_trials, work, False,
                                 COMMAND_TIMEOUT_S - elapsed))
        probes.append(probe())
        second.append(run_command(w, seed, trials, work, traced,
                                  COMMAND_TIMEOUT_S
                                  - (perf_counter() - start)))
        probes.append(probe())
        pair_s = max(pair_s, perf_counter() - start - elapsed)
    outcomes = first + second
    info["repetitions"] = len(second)
    info["ref_probe_s"] = REF_PROBE_S
    info["probe_s"] = [round(p, 4) for p in probes]
    roles = ("untraced", "traced") if trace else ("setup", "full")
    for role, runs in zip(roles, (first, second)):
        info[f"{role}_wall_s"] = [round(o.wall_s, 4) for o in runs]
    lines = ["# bench " + json.dumps(info)]
    for o in outcomes:
        if not o.ok:
            lines.append(f"# FAILED ({o.trials} trials): {o.message}")
    attempted = sum(o.trials for o in outcomes)
    failed = sum(o.trials for o in outcomes if not o.ok)

    if trace:
        plain = [o for o in first if o.ok] or first
        rows = [layer_metrics(o, plain) for o in second if o.ok]
        metrics = {name: {"value": statistics.median(r[name] for r in rows)
                          if rows else 0, "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
        m = {k: v["value"] for k, v in metrics.items()}
        lines.append(f"# trace: self times sum to {m['trace.self_sum_s']:.4f}"
                     f" s + import {m['trace.import_s']:.4f} s of a "
                     f"{m['trace.wall_s']:.4f} s traced wall; overhead "
                     f"{m['trace.overhead_s']:.4f} s over untraced "
                     f"{m['trace.untraced_wall_s']:.4f} s")
    else:
        # a command that failed says nothing of the program's speed
        full = [o for o in second if o.ok] or second
        setup = [o for o in first if o.ok] or first
        # pooled over the run: work completed per second of commands
        rate = sum(o.trials for o in full) / sum(o.wall_s for o in full)
        setup_s = statistics.median(o.wall_s for o in setup)
        slowdown = statistics.median(probes) / REF_PROBE_S
        lines.append(f"# unscaled: trials_per_s {rate:.6g} trials/s, "
                     f"setup_s {setup_s:.6g} s; host slowdown "
                     f"{slowdown:.4f} (median probe over {REF_PROBE_S} s)")
        metrics = {
            "trials_per_s": rate * slowdown,
            "setup_s": setup_s / slowdown,
            "peak_rss_mb": statistics.median(
                o.child.get("peak_rss_kib", 0) / 1024 for o in full),
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, v in metrics.items():
        lines.append(f"{w.name}  {name}  {v['value']:.6g} {v['unit']}")
    lines.append(f"{w.name}  failed_share  {failed / attempted:.6g} ratio")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rootrec" / "cli.py").is_file():
        print(f"error: no rootrec sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    # the probe must see the same core as the commands it scales
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, lines = run_workload(WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
