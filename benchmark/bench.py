#!/usr/bin/env python3
"""Orchestrator of the repo benchmark; benchmark/run.sh builds the runner
and starts this script with the user's arguments (see README.md).

Every (workload, pass) runs in its own runner process, so its rusage and
peak RSS belong to that pass alone. This script aggregates medians, checks
every pass's outputs against the goldens, prints each metric as
`workload metric value unit` and, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
import compare  # noqa: E402  (same directory)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["testbed64", "datapath64", "app64", "scale16k", "sweep_faults"]
# Their first pass can run much slower than later ones.
WARMUP = {"testbed64", "sweep_faults"}
# The only workload whose Campaigns run on several workers.
PARALLEL = {"sweep_faults"}
# Workloads whose outputs do not depend on the seed: every seed is checked
# against the seed-1 goldens.
SEED_FREE = {"testbed64", "datapath64", "scale16k"}
USABLE = {"ok", "faulted"}
# Set-up samples, each in its own process. Eleven, so that two samples
# caught in one of the host's slow phases move neither quartile.
SETUP_REPS = 11
# Per workload under --seconds, so a hung runner still lets one-workload
# invocations exit within 180 s.
DEADLINE_S = 170.0

# Units of the metrics BENCHMARK.json does not list because only some
# workloads report them.
UNITS = {
    "failed_frac": "ratio",
    "pacc.measure_collective_s": "s",
    "apps.run_workload_s": "s",
    "pacc.cell_hash_us": "us",
    "pacc.journal_append_p50_us": "us",
    "pacc.journal_append_p90_us": "us",
    "pacc.journal_open_s": "s",
    "pacc.journal_bytes": "bytes",
    "pacc.replayed_frac": "ratio",
    "pacc.artifact_write_s": "s",
    "pacc.artifact_load_s": "s",
    "trace.total_s": "s",
    "trace.pass_s": "s",
    "trace.baseline_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    pass


class Pass:
    """Parsed output and rusage of one runner process."""

    def __init__(self, stdout, rc, rusage, seconds):
        self.rc = rc
        self.rusage = rusage
        self.seconds = seconds
        self.metrics = {}  # name -> every value printed, in order
        self.cells = []
        self.golden = []
        self.mismatches = 0
        for line in stdout.splitlines():
            kind, _, rest = line.partition(" ")
            if kind == "metric":
                name, value = rest.split()
                self.metrics.setdefault(name, []).append(float(value))
            elif kind == "cell":
                self.cells.append(float(rest))
            elif kind == "golden":
                self.golden.append(rest)
            elif kind == "mismatch":
                self.mismatches += int(rest)

    def value(self, name):
        return self.metrics[name][-1]


def run_runner(cmd, deadline):
    """Runs one runner process to completion, killing it at `deadline`
    (time.monotonic(); None for no limit)."""
    t0 = time.monotonic()
    if deadline is not None and deadline <= t0:
        raise BenchError("out of time before " + " ".join(cmd[1:]))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = None
    if deadline is not None:
        timer = threading.Timer(deadline - t0, proc.kill)
        timer.start()
    try:
        stdout = proc.stdout.read()
    finally:
        if timer is not None:
            timer.cancel()
        proc.stdout.close()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{' '.join(cmd[1:])}: exit {proc.returncode}", file=sys.stderr)
    return Pass(stdout, proc.returncode, rusage, time.monotonic() - t0)


def golden_path(golden_dir, seed, workload):
    return os.path.join(golden_dir, f"seed{seed}", f"{workload}.txt")


def read_lines(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return f.read().splitlines()


def golden_for(workload, seed, golden_dir):
    """The golden lines a pass of `workload` must reproduce, or None on a
    held-out seed of a seed-dependent workload."""
    if workload in SEED_FREE:
        seed = 1
    return read_lines(golden_path(golden_dir, seed, workload))


def check_pass(p, reference, golden):
    """(attempted, failed) cells of pass `p`. A cell fails on a status
    other than ok/faulted, or on outputs that differ from the golden or
    from the invocation's first pass."""
    expected = len(golden or reference or [])
    if p.rc != 0 or not p.golden:
        return max(expected, 1), max(expected, 1)
    failed = 0
    for i, line in enumerate(p.golden):
        fields = line.split()
        bad = len(fields) < 2 or fields[1] not in USABLE
        for lines in (golden, reference):
            if lines is not None:
                bad = bad or i >= len(lines) or line != lines[i]
        failed += bad
    attempted = max(len(p.golden), expected)
    failed += attempted - len(p.golden)
    return attempted, min(attempted, failed + p.mismatches)


def percentile(values, q):
    """Linearly interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(values):
    return {"value": statistics.median(values), "samples": values}


def check_trace(path, metrics):
    """The Chrome trace must load, and the layers' self times must add up
    to the traced run's duration."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        raise BenchError(f"{path}: no spans")
    total = metrics["trace.total_s"]["value"]
    self_sum = sum(m["value"] for k, m in metrics.items()
                   if k.startswith("self."))
    if abs(self_sum - total) > 1e-6 * max(1.0, total):
        raise BenchError(f"{path}: self times sum to {self_sum} s, "
                         f"the traced run took {total} s")


class WorkloadRun:
    """Every runner process of one workload in one invocation."""

    def __init__(self, args, workload, nproc):
        self.args = args
        self.workload = workload
        self.run_dir = os.path.join(args.build, "runs",
                                    f"{workload}-{os.getpid()}")
        # Traced passes run at jobs 1, and so do their untraced baselines.
        self.jobs = 1
        if workload in PARALLEL and args.trace is None:
            self.jobs = min(4, nproc)
        self.golden = None
        if not args.write_golden:
            self.golden = golden_for(workload, args.seed, args.golden_dir)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.deadline = None
        if args.seconds is not None:
            self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode, jobs=None, extra=()):
        cmd = [self.args.runner, "--workload", self.workload,
               "--seed", str(self.args.seed), "--mode", mode,
               "--dir", self.run_dir, "--root", ROOT,
               "--jobs", str(self.jobs if jobs is None else jobs), *extra]
        p = run_runner(cmd, self.deadline)
        if mode != "setup":
            attempted, failed = check_pass(p, self.reference, self.golden)
            self.attempted += attempted
            self.failed += failed
            if self.reference is None and p.rc == 0:
                self.reference = p.golden
            # A resume must replay every cell from the journal.
            if p.metrics.get("pacc.replayed_frac", [1.0])[-1] != 1.0:
                self.failed += 1
        if p.rc != 0:
            raise BenchError(f"{self.workload}: --mode {mode} failed")
        return p

    def measure(self):
        os.makedirs(self.run_dir, exist_ok=True)
        try:
            if self.workload in WARMUP:
                self.run("pass")
            budget = self.args.seconds
            if self.args.trace is None:
                # Set-up samples go between the timed passes, so that they
                # see the machine at different moments of the run.
                setup = []

                def sample_setup(count):
                    for _ in range(min(count, SETUP_REPS - len(setup))):
                        setup.append(self.run("setup", 1).value("setup_s"))
                timed = self.timed_passes(budget, lambda: sample_setup(2))
                sample_setup(SETUP_REPS)
                self.end_to_end(timed, setup)
            else:
                # Half the budget; the rest goes to the traced pass.
                self.per_layer(self.timed_passes(
                    None if budget is None else budget / 2))
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        self.metrics["failed_frac"] = {"value": self.failed / self.attempted}

    def timed_passes(self, budget, between=None):
        """--repeats passes, or as many as fit in `budget` seconds (at
        least one) when --seconds is given. `between` runs after each."""
        timed = []
        elapsed = 0.0
        while True:
            timed.append(self.run("pass"))
            elapsed += timed[-1].seconds
            if between is not None:
                between()
            if budget is None:
                if len(timed) >= self.args.repeats:
                    return timed
            elif elapsed + timed[-1].seconds > budget:
                return timed

    def end_to_end(self, timed, setup):
        m = self.metrics
        m["wall_s"] = summarize([p.value("wall_s") for p in timed])
        # The median of per-pass percentiles, so that a run's value and its
        # samples are the same statistic.
        for name, q in (("cell_p50_s", 0.5), ("cell_p90_s", 0.9)):
            m[name] = {**summarize([percentile(p.cells, q) for p in timed]),
                       "n": sum(len(p.cells) for p in timed)}
        # ru_maxrss is in KiB on Linux.
        m["peak_rss_mib"] = summarize([p.rusage.ru_maxrss / 1024.0
                                       for p in timed])
        for name in compare.EXTRA_END_TO_END:
            if name in timed[0].metrics:
                m[name] = summarize([p.value(name) for p in timed])
        m["setup_s"] = summarize(setup)

    def per_layer(self, timed):
        path = self.args.trace_file
        if path is None:
            path = os.path.join(self.args.build, f"trace-{self.workload}.json")
        elif len(self.args.workloads) > 1:
            stem, ext = os.path.splitext(path)
            path = f"{stem}-{self.workload}{ext or '.json'}"
        traced = self.run("traced", 1, ["--trace-out", path])
        m = self.metrics
        for name in traced.metrics:
            m[name] = {"value": traced.value(name)}
        baseline = statistics.median(p.value("wall_s") for p in timed)
        m["trace.baseline_s"] = {"value": baseline}
        m["trace.overhead_ratio"] = {
            "value": traced.value("trace.pass_s") / baseline}
        for name, field in (("host.user_s", "ru_utime"),
                            ("host.sys_s", "ru_stime"),
                            ("host.minor_faults", "ru_minflt"),
                            ("host.vol_ctx_switches", "ru_nvcsw")):
            m[name] = summarize([float(getattr(p.rusage, field))
                                 for p in timed])
        check_trace(path, m)
        print(f"{self.workload} trace {path}")


def fs_type(path):
    """Filesystem type of the mount holding `path`."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            fields = line.split()
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fields[2]
    return kind


def machine(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep:
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "journal_fs": fs_type(build_dir),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }


def unit_of(name, declared):
    if name in declared:
        return declared[name]
    if name.startswith("self."):
        return "s"
    return UNITS.get(name, "")


def print_metrics(workload, metrics, declared):
    for name, m in metrics.items():
        line = f"{workload} {name} {m['value']:.6g} {unit_of(name, declared)}"
        samples = m.get("samples")
        if samples:
            line += (f"  (median of {len(samples)}: min {min(samples):.6g},"
                     f" max {max(samples):.6g})")
        if "n" in m:
            line += f"  ({m['n']} cells)"
        print(line)


def write_goldens(args, runs):
    if args.seed not in (1, 2):
        raise BenchError("goldens exist for seeds 1 and 2 only")
    for run in runs:
        if run.workload in SEED_FREE and args.seed != 1:
            continue
        path = golden_path(args.golden_dir, args.seed, run.workload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("\n".join(run.reference) + "\n")
        print(f"{run.workload} wrote {path}")


def selftest(args):
    """A perturbed golden must make testbed64 fail, and compare.py must
    call a slowdown of half the wall_s bound `agree` and one of twice the
    bound `worse`."""
    scratch = os.path.join(args.build, "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    golden = os.path.join(scratch, "golden")
    lines = read_lines(golden_path(args.golden_dir, 1, "testbed64"))
    fields = lines[0].split()
    fields[2] = str(int(fields[2]) + 1)  # one nanosecond off
    lines[0] = " ".join(fields)
    os.makedirs(os.path.join(golden, "seed1"))
    with open(golden_path(golden, 1, "testbed64"), "w") as f:
        f.write("\n".join(lines) + "\n")
    cmd = [sys.executable, __file__, "--runner", args.runner, "--build",
           args.build, "--workload", "testbed64", "--seed", "1",
           "--repeats", "1", "--golden-dir", golden]
    out = subprocess.run(cmd, capture_output=True, text=True)
    result = json.loads(out.stdout.splitlines()[-1])
    ok = out.returncode != 0 and result["failed"] > 0
    print(f"selftest perturbed golden: failed {result['failed']} of "
          f"{result['attempted']} cells, exit {out.returncode}: "
          f"{'ok' if ok else 'FAIL'}")

    def write_run(path, scale):
        samples = [v * scale for v in (1.00, 1.01, 0.99, 1.02, 0.98)]
        run = {"workloads": {"testbed64": {
            "attempted": 1, "failed": 0,
            "metrics": {"wall_s": {"value": statistics.median(samples),
                                   "samples": samples}}}}}
        with open(path, "w") as f:
            f.write(json.dumps(run) + "\n")

    bound = compare.end_to_end_metrics()["wall_s"]["bound"]
    base = os.path.join(scratch, "base.json")
    write_run(base, 1.0)
    for slowdown, expected, code in ((bound / 2, "agree", 0),
                                     (2 * bound, "worse", 1)):
        slower = os.path.join(scratch, "slower.json")
        write_run(slower, 1.0 + slowdown)
        out = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                              base, slower], capture_output=True, text=True)
        rows = [line.split() for line in out.stdout.splitlines()
                if " wall_s " in line]
        got = rows[0][-1] if rows else "?"
        passed = got == expected and out.returncode == code
        ok = ok and passed
        print(f"selftest {slowdown:.0%} slowdown against a {bound:.0%} bound: "
              f"{got}: {'ok' if passed else 'FAIL'}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description="Runs the repo benchmark.")
    p.add_argument("--runner", required=True, help="pacc_bench binary")
    p.add_argument("--build", required=True, help="benchmark build dir")
    p.add_argument("--workload", action="append", dest="workloads",
                   choices=WORKLOADS, help="repeatable; default: all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3,
                   help="timed passes per workload (without --seconds)")
    p.add_argument("--seconds", type=float,
                   help="time budget for a workload's timed passes")
    p.add_argument("--trace", metavar="0|1|FILE",
                   help="per-layer metrics from a traced pass; FILE gets "
                        "the Chrome trace")
    p.add_argument("--json", metavar="OUT", help="write the run as JSON")
    p.add_argument("--history", metavar="LABEL",
                   help="append the run to results/history.jsonl")
    p.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    p.add_argument("--write-golden", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    args.workloads = args.workloads or WORKLOADS
    args.trace_file = None
    if args.trace == "0":
        args.trace = None
    elif args.trace not in (None, "1"):
        args.trace_file = os.path.abspath(args.trace)
    return args


def main(argv):
    args = parse_args(argv)
    if args.selftest:
        return selftest(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace is not None else "end_to_end"]
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    declared.update({k: v["unit"] for k, v in compare.EXTRA_END_TO_END.items()})

    info = machine(args.build)
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    runs = []
    for workload in args.workloads:
        run = WorkloadRun(args, workload, info["nproc"])
        run.measure()
        print_metrics(workload, run.metrics, declared)
        runs.append(run)

    if args.write_golden:
        write_goldens(args, runs)
    record = {
        "schema": "pacc-benchmark-run-v1",
        "seed": args.seed,
        "traced": args.trace is not None,
        "machine": info,
        "workloads": {r.workload: {"attempted": r.attempted,
                                   "failed": r.failed,
                                   "metrics": r.metrics} for r in runs},
    }
    if args.json:
        with open(args.json, "w") as f:
            f.write(json.dumps(record) + "\n")
    if args.history:
        with open(os.path.join(HERE, "results", "history.jsonl"), "a") as f:
            f.write(json.dumps({"label": args.history, **record}) + "\n")

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {}
    for r in runs:
        prefix = "" if len(runs) == 1 else r.workload + "/"
        for m in listed:
            metrics[prefix + m["name"]] = {
                "value": r.metrics[m["name"]]["value"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        sys.exit(1)
