#!/usr/bin/env python3
"""End-to-end benchmark of `nulpa detect`, from input file to labels file.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload web --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

A run builds the CLI and the in-process helper (`perfbench/src`) from
source and generates the workload's inputs from the seed. It then times
`nulpa detect <input> --threads 2 --quality [--frontier] --output <labels>`
as a child process, one run at a time (a closed loop with one client),
for `--seconds` seconds after one untimed warm-up run, and longer while
the hypervisor steals much CPU time (see QUIET_STEAL). Every run's labels
are checked against the 1-thread `lpa_native` reference. A run fails if
the child exits non-zero or times out, if the file does not hold one
label per vertex, if `check_labels` rejects it, or if any label differs.

With `--trace 1` the run reports per-layer metrics instead. A few
untraced child runs give `wall_s`. Then the helper calls each layer's
public functions in its own process and writes a Perfetto-readable trace
to `.bench_work/<workload>/trace.json`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The metric names, units and
directions are those of BENCHMARK.json. Each run also appends a record to
`.bench_work/records.jsonl`, stamped with the host, commit, build profile
and input sizes. `compare` reads two such files and refuses to compare
records from different hosts.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
RECORDS = WORK / "records.jsonl"

# Per workload: CLI flags, and how many seeded inputs one run rotates
# through. The web stand-in's heavy-tailed host sizes make its edge count
# and iteration count vary from seed to seed, so a web run spreads its
# children over four inputs; the k-mer chains barely vary.
WORKLOADS = {
    "web": {"flags": [], "inputs": 4},
    "kmer": {"flags": [], "inputs": 1},
    "kmer-frontier": {"flags": ["--frontier"], "inputs": 1},
}
THREADS = 2  # the host's hardware threads; see README.md
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 60
# The host is a VM whose hypervisor at times steals a third of its CPU
# time for minutes on end, which slows a 2-thread run by up to 2.5x. A
# child run is *quiet* when less than QUIET_STEAL of the host's CPU time
# was stolen while it ran. Timings are medians over quiet runs; a run
# keeps measuring past `--seconds`, for at most EXTRA_S more, until it
# has MIN_QUIET of them.
QUIET_STEAL = 0.10
MIN_QUIET = 3
EXTRA_S = 90
BUILD_PROFILE = "release"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        die(f"{path}: {e}")


def build():
    """Build the CLI and the helper; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"{ROOT} is not a source checkout (no Cargo.toml and crates/)")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "nulpa"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 1)
    return target / "release" / "nulpa", target / "release" / "perfbench"


def helper(exe, *args):
    r = subprocess.run([str(exe), *map(str, args)], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if r.returncode != 0:
        die(f"helper failed: perfbench {' '.join(map(str, args))}", 1)
    return json.loads(r.stdout)


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def run_child(cmd, labels, log):
    """Spawn `cmd`, wait for it, and return its wall time, plus the CPU
    time and peak RSS the kernel accounted to this one child, and the
    share of the host's CPU time the hypervisor stole meanwhile."""
    timed_out = threading.Event()
    steal0, total0 = cpu_jiffies()
    t0 = time.perf_counter()
    with open(log, "wb") as lf:
        p = subprocess.Popen(cmd + [str(labels)], cwd=ROOT,
                             stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=lf)

    def kill():
        timed_out.set()
        p.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    steal1, total1 = cpu_jiffies()
    p.returncode = os.waitstatus_to_exitcode(status)
    return {
        "steal_frac": (steal1 - steal0) / max(1, total1 - total0),
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        "exit": p.returncode,
        "timed_out": timed_out.is_set(),
        "labels": labels,
    }


def corrupt(path):
    """Change the first label to another valid vertex id."""
    lines = path.read_text().splitlines()
    lines[0] = str((int(lines[0]) + 1) % len(lines))
    path.write_text("\n".join(lines) + "\n")


def check(exe, workload, inputs, runs, *trace):
    """Judge every run's labels against its input's reference. A run
    passes only if the child exited cleanly and its labels passed every
    check. Returns the helper's traced-run report, if one was asked for."""
    traced = None
    for k, inp in enumerate(inputs):
        mine = [r for r in runs if r["input"] == k]
        if not mine and not trace:
            continue
        out = helper(exe, "check", workload, inp["path"],
                     *[r["labels"] for r in mine], *trace)
        for r, v in zip(mine, out["runs"]):
            if r["timed_out"]:
                r["failure"] = f"timed out after {CHILD_TIMEOUT_S} s"
            elif r["exit"] != 0:
                r["failure"] = f"exit code {r['exit']}"
            else:
                r["failure"] = v["failure"]
            inp["quality"] = inp.get("quality") or (
                v if v["communities"] is not None else None)
        traced = traced or out["traced"]
    return traced


def host_stamp():
    cpu = mem = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                mem = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    hw = os.cpu_count()
    host_id = hashlib.sha256(f"{cpu}|{hw}|{mem}".encode()).hexdigest()[:16]
    return {"host_id": host_id, "cpu": cpu, "mem_total": mem,
            "hw_threads": hw}


def source_stamp():
    """The commit when the checkout is a git repository, and in any case
    a hash of the sources the benchmark builds."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("src", "crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()[:16]}


def child_loop(cmd, inputs, work, seconds):
    """Closed loop: one child at a time, rotating over the inputs, for
    `seconds` (at least one timed run), then on until MIN_QUIET timed runs
    were quiet or EXTRA_S more seconds have passed. The warm-up run is
    checked like the others but not timed."""
    runs = [run_child(cmd(inputs[0]), work / "warm.labels",
                      work / "warm.log")]
    runs[0].update(input=0, warm=True)
    t0 = time.perf_counter()
    timed = quiet = 0
    while True:
        elapsed = time.perf_counter() - t0
        if timed and elapsed >= seconds and (
                quiet >= MIN_QUIET or elapsed >= seconds + EXTRA_S):
            return runs
        k = timed % len(inputs)
        runs.append(run_child(cmd(inputs[k]), work / f"run-{timed}.labels",
                              work / f"run-{timed}.log"))
        runs[-1].update(input=k, warm=False)
        timed += 1
        quiet += runs[-1]["steal_frac"] < QUIET_STEAL


def timing_runs(runs):
    """The timed runs timings are taken from: passing quiet runs, else
    all passing runs, else all that exited cleanly."""
    timed = [r for r in runs if not r["warm"]]
    ok = [r for r in timed if r["failure"] is None]
    quiet = [r for r in ok if r["steal_frac"] < QUIET_STEAL]
    return quiet or ok or [r for r in timed if r["exit"] == 0]


def end_to_end(runs, inputs, setup_s):
    """Median per input, then the median over inputs, so that every input
    weighs the same however many runs it got."""
    use = timing_runs(runs)
    if not use:
        die("no run of the CLI completed", 1)
    for r in use:
        r["medges_per_s"] = inputs[r["input"]]["edges"] / 1e6 / r["wall_s"]
    keys = ("wall_s", "medges_per_s", "cpu_s", "peak_rss_mb")
    samples = {k: [r[k] for r in use] for k in keys}
    values = {}
    for k in keys:
        per_input = [[r[k] for r in use if r["input"] == i]
                     for i in range(len(inputs))]
        values[k] = statistics.median(
            statistics.median(xs) for xs in per_input if xs)
    samples["setup_s"] = setup_s
    values["setup_s"] = statistics.median(setup_s)
    samples["steal_frac"] = [r["steal_frac"] for r in runs if not r["warm"]]
    return values, samples


def print_table(rows):
    w = max(len(r[0]) for r in rows)
    for name, value, unit, n in rows:
        print(f"  {name:<{w}}  {value:>14.6g} {unit:<9} n={n}")


def main_run(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-labels", action="store_true",
                    help="corrupt the first timed run's labels before the "
                         "check, to show that the check counts it as failed")
    args = ap.parse_args(argv)
    spec = load_spec()
    nulpa, exe = build()
    wl = WORKLOADS[args.workload]

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    # Timed runs rotate over all inputs; the traced run profiles input 0.
    n_inputs = 1 if args.trace else wl["inputs"]
    seeds = [(args.seed * wl["inputs"] + k) % 2**64 for k in range(n_inputs)]
    paths = [work / f"input-{k}.txt" for k in range(n_inputs)]
    setup = helper(exe, "setup", args.workload, SETUP_RUNS,
                   *[f"{s}:{p}" for s, p in zip(seeds, paths)])
    inputs = [dict(shape, path=p) for shape, p in zip(setup["inputs"], paths)]
    for k, inp in enumerate(inputs):
        print(f"workload {args.workload}, seed {args.seed}, input {k} "
              f"(generator seed {inp['seed']}): |V| = {inp['vertices']}, "
              f"{inp['edges']} stored edges, {inp['input_bytes']} bytes")

    def cmd(inp):
        return [str(nulpa), "detect", str(inp["path"]), "--threads",
                str(THREADS), "--quality", *wl["flags"], "--output"]

    if args.trace:
        # A third of the budget for untraced children (for `wall_s`),
        # the rest for the traced in-process repetitions.
        runs = child_loop(cmd, inputs, work, args.seconds / 3)
        traced = check(exe, args.workload, inputs, runs, "--trace",
                       work / "trace.json", args.seconds * 2 / 3)
        walls = [r["wall_s"] for r in timing_runs(runs)]
        wall = statistics.median(walls or [r["wall_s"] for r in runs])
        values = dict(traced["metrics"])
        values["cli.residual_s"] = wall - (
            values["graph.io.read_s"] + values["graph.io.parse_build_s"]
            + values["core.native.iterate_s"] + values["metrics.modularity_s"])
        values["trace.overhead_s"] = values["trace.detect_s"] - wall
        attempted = len(runs) + traced["repetitions"]
        failures = [r["failure"] for r in runs if r["failure"]]
        failures += traced["failures"]
        wanted = spec["per_layer"]
        samples = {}
        print(f"traced run: {traced['repetitions']} repetition(s); untraced "
              f"wall_s {wall:.4f} s over {len(walls)} run(s); trace written "
              f"to {Path(traced['trace']).relative_to(ROOT)}")
        print("layer self time (last repetition):")
        for layer in traced["layers"]:
            indent = "    " if layer["parent"] else "  "
            print(f"{indent}{layer['name']:<34} total "
                  f"{layer['total_ms']:10.2f} ms  self "
                  f"{layer['self_ms']:10.2f} ms")
        rows = [(m["name"], values[m["name"]], m["unit"],
                 traced["repetitions"]) for m in wanted if m["name"] in values]
    else:
        runs = child_loop(cmd, inputs, work, args.seconds)
        if args.corrupt_labels and runs[1]["exit"] == 0:
            corrupt(runs[1]["labels"])
        check(exe, args.workload, inputs, runs)
        attempted = len(runs)
        failures = [r["failure"] for r in runs if r["failure"]]
        values, samples = end_to_end(runs, inputs, setup["setup_s"])
        wanted = spec["end_to_end"]
        n_quiet = len([r for r in timing_runs(runs)
                       if r["steal_frac"] < QUIET_STEAL])
        print(f"closed loop, 1 client, {THREADS} threads: {len(runs) - 1} "
              f"timed run(s) after 1 warm-up run, {n_quiet} of them quiet "
              f"(host steal < {QUIET_STEAL:.0%}); medians over "
              f"{'the quiet runs' if n_quiet else 'all passing runs'} "
              "(too few samples for a higher percentile)")
        rows = [(m["name"], values[m["name"]], m["unit"],
                 len(samples[m["name"]])) for m in wanted if m["name"] in values]
        for k, inp in enumerate(inputs):
            q = inp.get("quality")
            if q is None:
                continue
            n = sum(1 for r in runs if r["input"] == k)
            rows += [(f"input {k}: modularity", q["modularity"], "Q", n),
                     (f"input {k}: communities", q["communities"], "count", n),
                     (f"input {k}: disconnected_communities",
                      q["disconnected_communities"], "count", n)]
        rows.append(("failed_frac", len(failures) / attempted, "ratio",
                     attempted))
        rows.append(("host steal (median over timed runs)",
                     statistics.median(samples["steal_frac"]), "ratio",
                     len(samples["steal_frac"])))
    print_table(rows)
    for f in failures:
        print(f"FAILED: {f}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"unavailable: {', '.join(missing)}")

    metrics = {m["name"]: values[m["name"]] for m in wanted
               if m["name"] in values}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "build_profile": BUILD_PROFILE,
        "threads": THREADS, **host_stamp(), **source_stamp(),
        "inputs": [{k: v for k, v in inp.items() if k != "path"}
                   for inp in inputs],
        "attempted": attempted, "failed": len(failures), "metrics": metrics,
        "samples": samples,
    }
    with open(RECORDS, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(f"record appended to {RECORDS.relative_to(ROOT)} "
          f"(host {record['host_id']}, hw_threads {record['hw_threads']}, "
          f"commit {record['commit']}, sources {record['source_sha256']}, "
          f"{BUILD_PROFILE} build)")
    print(json.dumps({
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))


def main_compare(argv):
    """Compare per-workload medians of two record files from one host."""
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = load_spec()
    sides = []
    for path in (args.old, args.new):
        with open(path) as f:
            sides.append([json.loads(line) for line in f if line.strip()])
    hosts = {r["host_id"] for side in sides for r in side}
    if len(hosts) != 1:
        die(f"records come from {len(hosts)} hosts {sorted(hosts)}; "
            "refusing to compare", 3)
    for wl in sorted({r["workload"] for side in sides for r in side}):
        print(f"{wl}:")
        for m in spec["end_to_end"] + spec["per_layer"]:
            vals = [[r["metrics"][m["name"]] for r in side
                     if r["workload"] == wl and m["name"] in r["metrics"]]
                    for side in sides]
            if not all(vals):
                continue
            old, new = (statistics.median(v) for v in vals)
            change = (new - old) / old if old else float("nan")
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if "bound" in m:
                verdict = "REGRESSION" if worse > m["bound"] else "ok"
            print(f"  {m['name']:<36} {old:12.6g} -> {new:12.6g} "
                  f"{change:+8.2%}  n={len(vals[0])}/{len(vals[1])} {verdict}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["compare"]:
        main_compare(sys.argv[2:])
    else:
        main_run(sys.argv[1:])
