#!/usr/bin/env python3
"""The layered ledger: one runner for every workload and metric.

Two front ends over the same measurement code:

* the **driver contract** (``BENCHMARK.json``):
  ``run.py --workload W --seed N --seconds S --trace 0|1`` prints, as
  the last line of stdout, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — every end-to-end metric
  from untraced repetitions (``--trace 0``) or every per-layer metric
  from one traced repetition (``--trace 1``);
* the **ledger report**: ``run.py --all [--trace] [--out FILE]`` runs
  every workload, prints every metric by name with its unit, and
  writes the machine-readable summary that ``--compare A.json B.json``
  diffs.

Load model: a closed loop with one client in one process (``jobs=1``);
every repetition is a fresh subprocess with ``PYTHONHASHSEED=0``, the
``REPRO_*`` environment scrubbed and one CPU.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(LEDGER_DIR, "out")

# Fewest repetitions (fresh processes) per run, whatever ``--seconds``
# says.  aot_exec compiles once per process and takes its samples from
# the sweeps, which it repeats until its seconds are used up.
MIN_REPS = {"aot_cold": 3, "aot_exec": 1, "store_warm": 3,
            "serve_tiered": 3, "serve_calls": 3, "fleet_adopt": 3}
MAX_REPS = 40
FILLED_STORE = ("store_warm", "fleet_adopt")   # set-up fills a store
# Set-up is repeated until it has this many samples or has used this
# much time: cheap set-ups get a median of five, a store fill runs once.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 2.0

# Deterministic metrics: compared with ``==`` by --compare.
EXACT = ("fuel_per_req", "fuel_speedup", "code_instrs", "emitted_bytes")
# Reported by the ledger only.  The driver contract wants every
# end-to-end metric on every workload and never 0, which rules out a
# store size on store-less workloads and a failure share that is 0
# whenever the system is correct; the contract's own ``attempted`` /
# ``failed`` fields carry the latter.
LEDGER_ONLY = {
    "store_bytes": {"unit": "bytes", "better": "lower", "bound": 0.05},
    "fail_share": {"unit": "share", "better": "lower", "bound": 0.0},
}
GUARDED_ENV = ("REPRO_BACKEND", "REPRO_LINK_CALLS", "REPRO_OPT_VERIFY",
               "REPRO_PROFILE")


def die(message: str, code: int = 2):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(code)


def load_contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(contract: dict) -> dict:
    """name -> {unit, better, bound} for every end-to-end metric the
    ledger reports (contract metrics plus the ledger-only ones)."""
    table = {m["name"]: m for m in contract["end_to_end"]}
    table.update(LEDGER_ONLY)
    return table


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC_DIR
    return env


def spawn(spec: dict) -> dict:
    """Run one phase in a fresh interpreter and wait for it."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--child"], input=json.dumps(spec), text=True,
                          capture_output=True, env=child_env(), timeout=170)
    if proc.returncode != 0:
        die(f"child failed ({spec['workload']}/{spec['phase']}):\n"
            + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def child_main() -> None:
    import gc
    import ledger_workloads as lw
    spec = json.load(sys.stdin)
    gc.collect()
    print(json.dumps(lw.run_child(spec)))


# ---------------------------------------------------------------------------
# One workload, one run.
# ---------------------------------------------------------------------------

def summarize(values: list) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"median": statistics.median(values),
            "iqr": quartiles[2] - quartiles[0], "n": len(values)}


def measure(workload: str, seed: int, seconds: float, smoke: bool = False,
            trace: bool = False, inprocess: bool = False,
            probes: dict = None) -> dict:
    """Set up, repeat fresh starts for ``seconds`` (at least
    ``MIN_REPS``), and reduce the repetitions to medians.

    With ``trace`` the run is one untraced and one traced repetition;
    the result then also carries ``layers`` (``probes``: machine-probe
    readings to reuse instead of measuring them again).
    """
    import ledger_workloads as lw
    from ledger_speed import reading, scale
    run = lw.run_child if inprocess else spawn
    os.makedirs(OUT_DIR, exist_ok=True)
    attempted = failed = 0
    messages, setups, reps = [], [], []

    def count(outcome: dict) -> dict:
        nonlocal attempted, failed
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        messages.extend(outcome["messages"])
        return outcome

    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="store-") as root:
        base = {"workload": workload, "seed": seed, "smoke": smoke,
                "seconds": seconds}
        # Set-up: a fresh interpreter imports the layers, loads and
        # hash-checks the frozen inputs, derives the request streams,
        # checks the references and, where the workload starts from a
        # filled store, fills one.  The last store filled is the one
        # the repetitions start from.
        store = None
        while True:
            if workload in FILLED_STORE:
                if store is not None:
                    shutil.rmtree(store, ignore_errors=True)
                store = os.path.join(root, f"store{len(setups)}")
            before = reading()
            begin = time.perf_counter()
            outcome = count(run(dict(base, phase="setup", cache_dir=store)))
            took = time.perf_counter() - begin
            # The child scales its own work with the readings it took
            # along the way; starting it is scaled with the runner's.
            setups.append(outcome["wall_s"] + (took - outcome["raw_s"])
                          * scale(before, reading()))
            if inprocess or len(setups) >= SETUP_SAMPLES \
                    or sum(setups) >= SETUP_BUDGET_S:
                break

        started = time.perf_counter()
        while True:
            spec = dict(base, phase="rep", sizes=not reps, cache_dir=store)
            if workload == "aot_cold":   # every repetition: empty store
                spec["cache_dir"] = os.path.join(root, f"rep{len(reps)}")
            if trace and reps:
                spec["trace"] = True
                spec["probes"] = probes
                spec["trace_path"] = os.path.join(
                    OUT_DIR, f"trace_{workload}.json")
            reps.append(count(run(spec)))
            if workload == "aot_cold":
                shutil.rmtree(spec["cache_dir"], ignore_errors=True)
            elapsed = time.perf_counter() - started
            if trace:
                if len(reps) == 2:
                    break
            elif len(reps) >= MAX_REPS or (
                    len(reps) >= MIN_REPS[workload]
                    and elapsed + elapsed / len(reps) > seconds):
                break

    untraced = reps[:1] if trace else reps
    metrics = {"setup_s": summarize(setups)}
    if "setup_s" in reps[0]:            # aot_exec: compile is set-up
        metrics["setup_s"]["median"] += statistics.median(
            rep["setup_s"] for rep in untraced)
    for name in untraced[0]["metrics"]:
        metrics[name] = summarize([rep["metrics"][name] for rep in untraced
                                   if name in rep["metrics"]])
    for name in EXACT:      # "must repeat exactly", traced or not
        values = {rep["metrics"][name] for rep in reps
                  if name in rep["metrics"]}
        attempted += 1
        if len(values) > 1:
            failed += 1
            messages.append(f"{name} differs between repetitions: "
                            f"{sorted(values)}")
    metrics["fail_share"] = {"median": failed / attempted, "iqr": 0.0,
                             "n": attempted}
    units = {unit: {name: statistics.median(rep["units"][unit][name]
                                            for rep in untraced)
                    for name in row}
             for unit, row in untraced[0]["units"].items()}
    result = {"workload": workload, "seed": seed, "reps": len(untraced),
              "attempted": attempted, "failed": failed,
              "messages": messages[:8], "metrics": metrics, "units": units,
              "machine_speed": summarize([rep["machine_speed"]
                                          for rep in untraced])}
    if trace:
        layers = dict(reps[1]["layers"])
        layers["trace.overhead_share"] = \
            (reps[1]["wall_s"] - reps[0]["wall_s"]) / reps[0]["wall_s"]
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# Front ends.
# ---------------------------------------------------------------------------

def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"], text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def check_environment() -> None:
    altered = [name for name in GUARDED_ENV if os.environ.get(name)]
    if altered:
        die(f"{', '.join(altered)} set in the environment: the ledger "
            f"measures the defaults; unset them")


def contract_run(args, contract: dict) -> int:
    """The driver's entry: one workload, one JSON line."""
    check_environment()
    result = measure(args.workload, args.seed, args.seconds,
                     smoke=args.smoke, trace=bool(args.trace),
                     inprocess=args.smoke)
    if args.trace:
        wanted = contract["per_layer"]
        values = result["layers"]
    else:
        wanted = contract["end_to_end"]
        values = {name: row["median"]
                  for name, row in result["metrics"].items()}
    for message in result["messages"]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if result["failed"] == 0 else 1


def report(summary: dict, contract: dict) -> None:
    """Every metric by name, with its unit."""
    table = metric_table(contract)
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for workload, result in summary["workloads"].items():
        print(f"\n== {workload}  (seed {result['seed']}, "
              f"{result['reps']} repetitions, {result['attempted']} "
              f"operations, {result['failed']} failed, machine at "
              f"{result['machine_speed']['median']:.0%} of reference "
              f"speed)")
        for name, row in result["metrics"].items():
            print(f"  {name:<34}{row['median']:>16.6g} "
                  f"{table[name]['unit']:<7} iqr {row['iqr']:.3g} "
                  f"n={row['n']}")
        for unit, row in result["units"].items():
            cells = "  ".join(f"{k}={v:.6g}" for k, v in row.items())
            print(f"    {unit:<18}{cells}")
        for name, value in result.get("layers", {}).items():
            print(f"  {name:<44}{value:>16.6g} {layer_units[name]}")
        for message in result["messages"]:
            print(f"  FAILED: {message}")


def all_run(args, contract: dict) -> int:
    check_environment()
    names = [args.workload] if args.workload else \
        [w["name"] for w in contract["workloads"]]
    summary = {"schema": 1, "environment": environment(),
               "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in names:
        result = measure(name, args.seed, args.seconds)
        if args.trace:
            traced = measure(name, args.seed, args.seconds, trace=True)
            result["layers"] = traced["layers"]
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["messages"] = (result["messages"]
                                  + traced["messages"])[:8]
        summary["workloads"][name] = result
    return finish(summary, contract, args.out or os.path.join(
        OUT_DIR, f"ledger_seed{args.seed}.json"))


def smoke_run(args, contract: dict) -> int:
    """Every workload once untraced and once traced, in-process, at
    toy sizes: exercises every code path in a few seconds."""
    import ledger_workloads as lw
    probes = lw.machine_probes(lw.load_sources(), smoke=True)
    summary = {"schema": 1, "environment": environment(),
               "seed": args.seed, "seconds": 0.0, "workloads": {
                   row["name"]: measure(row["name"], args.seed, 0.0,
                                        smoke=True, trace=True,
                                        inprocess=True, probes=probes)
                   for row in contract["workloads"]}}
    return finish(summary, contract, args.out)


def finish(summary: dict, contract: dict, out: str = None) -> int:
    """Print the report, write the summary, and say whether every
    operation was correct."""
    summary["claim"] = None     # a baseline: nothing is claimed
    report(summary, contract)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
        print(f"\nwrote {out}")
    failed = sum(r["failed"] for r in summary["workloads"].values())
    return 0 if failed == 0 else 1


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """One row per (metric, workload): is B worse than A?"""
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)["workloads"]
    table = metric_table(contract)
    worse = 0
    print(f"{'workload':<14}{'metric':<15}{'A median':>14}{'A iqr':>11}"
          f"{'B median':>14}{'B iqr':>11}{'delta':>9}{'bound':>7}  verdict")
    for workload in first:
        if workload not in second:
            continue
        for name, a in first[workload]["metrics"].items():
            b = second[workload]["metrics"].get(name)
            if b is None:
                continue
            info = table[name]
            sign = 1.0 if info["better"] == "lower" else -1.0
            base = abs(a["median"])
            # Share of A's median by which B is worse (negative: better).
            delta = sign * (b["median"] - a["median"]) / base if base \
                else float(b["median"] != a["median"])
            spread = max(a["iqr"], b["iqr"]) / base if base else 0.0
            if name in EXACT:
                verdict = "ok" if a["median"] == b["median"] else \
                    "worse" if delta > info["bound"] else "changed"
            elif delta > info["bound"]:
                verdict = "worse"
            elif spread > info["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            worse += verdict == "worse"
            print(f"{workload:<14}{name:<15}{a['median']:>14.6g}"
                  f"{a['iqr']:>11.3g}{b['median']:>14.6g}{b['iqr']:>11.3g}"
                  f"{delta:>+9.1%}{info['bound']:>7.0%}  {verdict}")
    return 1 if worse else 0


def regen_expected() -> int:
    import ledger_workloads as lw
    lw.write_manifest()
    with open(lw.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(lw.regen_expected(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {lw.EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        die(f"no program to measure: {SRC_DIR}/repro is missing")
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, LEDGER_DIR)
    from ledger_speed import pin_to_one_cpu
    pin_to_one_cpu()
    if args.child:
        child_main()
        return 0
    # A terminated run still removes its stores and stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if args.regen_expected:
        return regen_expected()
    if args.all:
        return all_run(args, contract)
    if args.workload:
        return contract_run(args, contract)
    if args.smoke:
        return smoke_run(args, contract)
    parser.error("give --workload, --all, --smoke, --compare or "
                 "--regen-expected")


if __name__ == "__main__":
    sys.exit(main())
