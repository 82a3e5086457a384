#!/usr/bin/env python3
"""End-to-end benchmark of the M&M consensus stack.

Builds perfbench/bench_e2e (Release) into .bench_build/, runs workloads
through harness::run_cluster, checks every run's correctness verdicts, and
prints each metric by name and unit. BENCHMARK.json at the repository root
lists the workloads and the metrics with their units, directions and bounds;
perfbench/README.md explains them.

  python3 perfbench/run.py                      # one set: every workload
  python3 perfbench/run.py --trace              # one traced set: per-layer
  python3 perfbench/run.py --sets 10 --out A.json
  python3 perfbench/run.py compare A.json B.json
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --workload the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
without tracing, the per-layer metrics with it. Each workload runs in
processes of its own, one after another, so peak RSS belongs to one workload.
"""

import argparse
import bisect
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "bench_e2e")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Set-up time is the median of this many processes' warm-up phases.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
# Layers for CPU attribution: the src/ modules, by namespace mnm::<module>.
LAYERS = ("sim", "net", "mem", "swmr", "crypto", "core", "smr", "kv", "txn",
          "reconfig", "util", "harness")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


# ---------------------------------------------------------------------------
# Build and run context.
# ---------------------------------------------------------------------------

def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def context(seed, seconds, trace):
    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": first_line([cmake_cache("CMAKE_CXX_COMPILER"), "--version"]),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# One workload: child processes and their raw numbers.
# ---------------------------------------------------------------------------

def child(args):
    try:
        out = subprocess.run([EXE] + args, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e {' '.join(args)} timed out")
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail(f"bench_e2e {' '.join(args)} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        samples_path = os.path.join(BUILD, f"samples-{name}.txt")
        raw = child(base + ["--trace", samples_path])
        raw["layer_samples"] = attribute(samples_path)
        return raw
    setups = [child(base + ["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    raw = child(base)
    raw["setup_samples"] = setups + [raw["setup_s"]]
    return raw


def verdict(raw):
    """(correct, attempted op slots, failed op slots, failing seeds)."""
    runs = raw["runs"] + raw.get("traced_runs", [])
    slots = raw["op_slots_per_run"]
    bad = sorted({r["seed"] for r in runs if not r["ok"]})
    failed = slots * sum(1 for r in runs if not r["ok"])
    correct = not bad and raw.get("replay_matches", True)
    return correct, slots * len(runs), failed, bad


# ---------------------------------------------------------------------------
# CPU attribution of sampled stacks (--trace). Each sample goes to the
# innermost frame whose function is in namespace mnm::<layer>::, so std and
# libc time counts toward its mnm caller; a sample with none goes to other.
# ---------------------------------------------------------------------------

NM_LINE = re.compile(r"^([0-9a-f]+) (?:([0-9a-f]+) )?([A-Za-z]) (.*)$")
OPERATOR = re.compile(r"operator(<<=|>>=|<=>|<<|>>|<=|>=|->\*|->|<|>)")
MODULE = re.compile(r"mnm::(\w+)::")


def layer_of(symbol):
    """Layer of a demangled name: the namespace of the function itself, not
    of its return type or template arguments."""
    name = OPERATOR.sub("operator", symbol)
    depth, starts = 0, []
    for i, ch in enumerate(name):
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth -= 1
        elif depth == 0 and name.startswith("mnm::", i) and (i == 0 or name[i - 1] == " "):
            starts.append(i)
    if starts:
        m = MODULE.match(name, starts[-1])
        if m and m.group(1) in LAYERS:
            return m.group(1)
    return None


def symbol_table():
    out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only", EXE],
                         capture_output=True, text=True, check=True).stdout
    addrs, ends, layers = [], [], []
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if not m or m.group(3) not in "tTwWiI":
            continue
        addr = int(m.group(1), 16)
        size = int(m.group(2), 16) if m.group(2) else 0
        addrs.append(addr)
        ends.append(addr + size if size else None)
        layers.append(layer_of(m.group(4)))
    return addrs, ends, layers


def attribute(samples_path):
    addrs, ends, layers = symbol_table()
    cache = {}

    def lookup(offset):
        if offset not in cache:
            # Frames above the innermost are return addresses; the call
            # instruction ends one byte before them.
            pc = offset - 1
            i = bisect.bisect_right(addrs, pc) - 1
            inside = i >= 0 and (ends[i] is None or pc < ends[i])
            cache[offset] = layers[i] if inside else None
        return cache[offset]

    counts = {layer: 0 for layer in LAYERS + ("other",)}
    with open(samples_path) as f:
        for line in f:
            layer = "other"
            for tok in line.split():
                found = lookup(int(tok, 16))
                if found:
                    layer = found
                    break
            counts[layer] += 1
    return counts


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def tail_percentile(report):
    """The highest of p99.9 / p99 / p50 with at least ten samples beyond it
    in this run. Latencies are recorded for reads (a transfer's reads too)
    and writes; a transfer's prepare and decision records have none."""
    n = report["kv_reads"] + report["kv_writes"]
    if n * 0.001 >= 10:
        return report["kv_op_p999"]
    if n * 0.01 >= 10:
        return report["kv_op_p99"]
    return report["kv_op_p50"]


def end_to_end(raw):
    reps = raw["reports"]
    rates = [r["ops"] / r["wall_s"] for r in raw["runs"]]
    return {
        # Other tenants of a shared machine slow whole stretches of runs by
        # up to ~70% and never speed one up, so the 90th percentile of the
        # per-run rates tracks the program's own speed far more steadily
        # than the median does.
        "ops_per_wall_s": statistics.quantiles(rates, n=10, method="inclusive")[-1],
        "ops_per_kdelay": 1000.0 * sum(r["kv_ops"] for r in reps) / sum(r["vtime"] for r in reps),
        "op_p50_delays": statistics.median(r["kv_op_p50"] for r in reps),
        "op_tail_delays": statistics.median(tail_percentile(r) for r in reps),
        "setup_s": statistics.median(raw["setup_samples"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    reps = raw["reports"]

    def total(key):
        return sum(r[key] for r in reps)

    def ratio(num, den):
        d = total(den)
        return total(num) / d if d else 0.0

    def med(fn):
        return statistics.median(fn(r) for r in reps)

    ops = total("kv_ops")
    runs = len(reps)
    samples = raw["layer_samples"]
    n_samples = sum(samples.values())
    traced_ops = sum(r["ops"] for r in raw["traced_runs"])
    cpu_us_per_op = raw["traced_cpu_s"] * 1e6 / traced_ops
    fixed = raw["fixed_runs"]
    untraced_wall = sum(r["wall_s"] for r in raw["runs"][:fixed])
    traced_wall = sum(r["wall_s"] for r in raw["traced_runs"][:fixed])

    m = {
        "sim.events_per_op": total("events") / ops,
        "net.msgs_per_op": total("messages_sent") / ops,
        "mem.reads_per_op": total("mem_reads") / ops,
        "mem.read_batches_per_op": total("mem_read_batches") / ops,
        "mem.writes_per_op": total("mem_writes") / ops,
        "mem.perm_changes_per_op": total("permission_changes") / ops,
        "crypto.signs_per_op": total("signatures") / ops,
        "crypto.verifies_per_op": total("verifications") / ops,
        "core.commit_p50_delays": med(lambda r: r["commit_p50"]),
        "core.commit_p999_delays": med(lambda r: r["commit_p999"]),
        "core.tsend_decoded_per_delivery": ratio("history_entries_decoded", "tsend_deliveries"),
        "smr.queue_wait_p50_delays": med(lambda r: r["queue_wait_p50"]),
        "smr.queue_wait_p99_delays": med(lambda r: r["queue_wait_p99"]),
        "smr.cmds_per_slot": ratio("commands_applied", "slots_applied"),
        "smr.window_occupancy": ratio("occupancy_slots", "occupancy_limit"),
        "smr.noop_slot_share": ratio("noop_slots", "slots_applied"),
        "smr.catchup_bytes_per_run": total("catchup_bytes") / runs,
        "smr.snapshots_per_run": (total("snapshots_taken") + total("snapshots_installed")) / runs,
        "kv.reply_gap_p50_delays": med(lambda r: r["kv_op_p50"] - r["commit_p50"]),
        "kv.retries_per_op": total("kv_retries") / ops,
        "kv.dup_share": total("kv_duplicates") / ops,
        "txn.abort_rate": ratio("kv_txn_aborts", "kv_txns"),
        "txn.conflicts_per_txn": ratio("kv_txn_conflicts", "kv_txns"),
        "txn.commit_p50_delays": med(lambda r: r["kv_txn_commit_p50"]),
        "txn.commit_p999_delays": med(lambda r: r["kv_txn_commit_p999"]),
        "reconfig.bounces_per_run": total("reconfig_bounces") / runs,
        "reconfig.keys_moved_per_run": total("reconfig_keys_moved") / runs,
        "trace.samples": n_samples,
        "trace.overhead": traced_wall / untraced_wall - 1.0,
        "trace.cpu_us_per_op": cpu_us_per_op,
    }
    for layer, count in samples.items():
        share = count / n_samples if n_samples else 0.0
        m[f"{layer}.cpu_share"] = share
        m[f"{layer}.cpu_us_per_op"] = share * cpu_us_per_op
    return m


def result(raw, trace, spec):
    correct, attempted, failed, bad = verdict(raw)
    values = per_layer(raw) if trace else end_to_end(raw)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            fail(f"BENCHMARK.json names {metric['name']}, which run.py does not compute")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, bad


def run_counts(raw):
    counts = {"warmups": raw["warmups"], "fixed_runs": raw["fixed_runs"],
              "timed_runs": len(raw["runs"]), "op_slots_per_run": raw["op_slots_per_run"]}
    if "traced_runs" in raw:
        counts["traced_runs"] = len(raw["traced_runs"])
        counts["samples_dropped"] = raw["samples_dropped"]
    return counts


def print_metrics(name, res):
    for metric, v in res["metrics"].items():
        print(f"{name:20s} {metric:34s} {v['value']:>16.6g} {v['unit']}")
    print(f"{name:20s} {'correct':34s} {str(res['correct']):>16s} "
          f"({res['failed']} of {res['attempted']} op slots failed)")


# ---------------------------------------------------------------------------
# compare: per workload x end-to-end metric, median, quartiles and a verdict.
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(base, new, bound, higher_better):
    """improved / same / regressed / unresolved, by the rule: a gain needs
    >= 10 paired sets, the change winning >= 9/10 pairs (ties count for
    neither), and medians further apart than the parent's IQR. A median
    worse by more than the bound is a regression. A spread wider than the
    bound leaves the metric unresolved unless every new run beats every
    base run."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)

    def better(x, y):
        return x > y if higher_better else x < y

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > b3 - b1:
        return "improved"
    all_better = all(better(n, b) for n in new for b in base)
    spread = max(b3 - b1, n3 - n1) / abs(bmed) if bmed else 0.0
    if spread > bound and not all_better:
        return "unresolved"
    worse = bmed * (1 - bound) if higher_better else bmed * (1 + bound)
    if (nmed < worse) if higher_better else (nmed > worse):
        return "regressed"
    return "same"


def compare(base_path, new_path):
    spec = load_spec()
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    regressions = 0
    print(f"{'workload':20s} {'metric':16s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for metric in spec["end_to_end"]:

            def values(sets):
                return [s["workloads"][name]["metrics"][metric["name"]]["value"]
                        for s in sets["sets"] if name in s["workloads"]]

            bv, nv = values(base), values(new)
            if not bv or not nv:
                continue
            v = judge(bv, nv, metric["bound"], metric["better"] == "higher")
            regressions += v == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:20s} {metric['name']:16s} {fmt(quartiles(bv)):>32s} "
                  f"{fmt(quartiles(nv)):>32s}  {v}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            fail("usage: run.py compare BASE.json NEW.json")
        return compare(argv[1], argv[2])

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names,
                   help="run one workload and print the result object last")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    p.add_argument("--sets", type=int, default=1, help="sets to run (seeds seed, seed+1, ...)")
    p.add_argument("--out", help="write every set's results to this JSON file")
    a = p.parse_args(argv)

    build()
    ctx = context(a.seed, a.seconds, bool(a.trace))
    ok = True
    sets = []
    for s in range(a.sets):
        seed = a.seed + s
        ctx_set = dict(ctx, seed=seed, runs={})
        results = {}
        for name in ([a.workload] if a.workload else names):
            raw = run_workload(name, seed, a.seconds, a.trace)
            res, bad = result(raw, a.trace, spec)
            ctx_set["runs"][name] = run_counts(raw)
            results[name] = res
            print_metrics(name, res)
            if not res["correct"]:
                ok = False
                why = f"seeds {bad} failed a correctness check" if bad else \
                    "the traced replay differed from the untraced run"
                print(f"run.py: {name} seed {seed}: {why}", file=sys.stderr)
        sets.append({"context": ctx_set, "workloads": results})
        print("context " + json.dumps(ctx_set))

    if a.out:
        with open(a.out, "w") as f:
            json.dump({"sets": sets}, f, indent=1)
    if a.workload:
        print(json.dumps(sets[-1]["workloads"][a.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
