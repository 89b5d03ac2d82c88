"""graphilp benchmark: one workload per process, end-to-end or per-layer.

    python3 perfbench/run.py --workload disjunctive --seed 3 --seconds 20 --trace 0

`--trace 0` times the workload with tracing off and prints the end-to-end
metrics; `--trace 1` runs the fixed work once untraced and once traced and
prints the per-layer metrics (the difference of the two is the tracing
overhead, reported with them). `--workload all` runs every workload, each in
its own process. `--smoke` shrinks every workload to a few operations.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it holds the details: per-operation fingerprints and
timings, failures, and the run's provenance.

The program is imported from `src/` next to this directory; numpy's BLAS is
pinned to one thread before anything imports it. The work is then
single-threaded, so every time is the process's CPU time: the wall time of
the work less the time the process waited for a CPU on a shared machine.
`wall_s` and `setup_s` are then scaled by the machine's speed during the run,
measured with a fixed reference loop between operations (see `Speed`).
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
# After each timed call the reference loop runs for this share of the call's
# CPU time (at least once), so its samples cover the run as the work does.
REF_SHARE = 0.05
# The reference loop's mean CPU time on a 2-vCPU Xeon (2.1 GHz) virtual
# machine; it only turns reference loops back into seconds.
REF_SECONDS = 0.004
# BENCHMARK.json lists the regression workloads; README.md says why the others are not
ALL_WORKLOADS = ("two-links", "desk", "fullscale-compile", "disjunctive")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"solve.nodes": "count", "solve.ms_per_node": "ms", "solve.root_gap": "ratio",
               "solve.timeouts": "count", "encode.vars": "count", "encode.aux_vars": "count",
               "encode.rows": "count", "encode.nonzeros": "count", "encode.clauses": "count",
               "encode.max_big_m": "coefficient", "pattern.matches": "count",
               "pattern.apply_rule_calls": "count", "lpformat.bytes": "bytes",
               "cli.exit_nonzero": "count"}  # every other layer metric is in seconds

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.process_time(); import graphilp; print(time.process_time() - t)")


def import_seconds() -> float:
    """CPU time to import the program in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # a plain checkout, not a git work tree
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> dict:
    """Keeps this process, and the import probes it starts, on one CPU, so the
    reference loop runs under the same load as the work it is compared with."""
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})
    return {"cpus_usable": len(usable), "pinned_cpu": usable[0]}


def provenance(args, pinning) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            **pinning, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "commit": git_commit()}


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the program's: tuples as dict keys,
    small lists, dicts and strings, and a keyed sort."""
    table = {}
    for i in range(3000):
        table[(i % 97, i)] = [i * 0.5, str(i), {"a": i}]
    return len(sorted(table, key=lambda k: (k[1] % 13, k)))


class Speed:
    """The machine's speed while the timed calls ran, from the reference loop.

    On a shared machine the CPU time of fixed work drifts by up to 2x, over
    seconds and over whole minutes, as other tenants load the same cores and
    caches. The reference loop runs after every timed call, in proportion to
    its CPU time, so its mean time is slowed by the same load, in the same
    proportions, as the calls were. The loop runs with the garbage collector
    off, so the program's heap cannot change its time.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, call_seconds: float):
        budget = REF_SHARE * call_seconds
        gc.disable()
        try:
            while True:
                start = time.process_time()
                reference_loop()
                self.samples.append(time.process_time() - start)
                budget -= self.samples[-1]
                if budget <= 0:
                    break
        finally:
            gc.enable()

    def scale(self) -> float:
        """Turns the sampled calls' CPU time into seconds at the speed at
        which the loop takes REF_SECONDS."""
        return REF_SECONDS / statistics.fmean(self.samples)


class Harness:
    def __init__(self, workload, tracer, args, workdir):
        self.w = workload
        self.tracer = tracer
        self.args = args
        self.workdir = workdir
        self.failures: list[str] = []
        self.attempted = 0
        self.speed = Speed()

    def setup(self):
        return self.w.setup(ROOT, self.workdir, self.args.seed, self.args.smoke)

    def timed_setup(self):
        """Median over SETUP_REPEATS of (import time + the workload's set-up),
        in reference seconds; the raw CPU time too."""
        times = []
        speed = Speed()
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            start = time.process_time()
            state = self.setup()
            times.append(imported + time.process_time() - start)
            speed.sample(times[-1])
        cpu = statistics.median(times)
        return cpu * speed.scale(), cpu, state

    def one_pass(self, state, times, deadline=None):
        """Run every operation once, or those that start before `deadline`
        (a perf_counter value); returns the outcomes per operation."""
        results = []
        self.tracer.take_solves()
        for i, op in enumerate(self.w.ops(state)):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            self.attempted += self.w.size(state, op)
            start = time.process_time()
            try:
                raw = self.w.call(state, op)
                times[i].append(time.process_time() - start)
                results.append(self.w.collect(state, op, raw, self.tracer.take_solves()))
            except Exception:  # reported as a failed operation, the run goes on
                self.tracer.take_solves()
                self.failures.append(f"op {op}: {traceback.format_exc(limit=-3)}")
                results.append(None)
            self.speed.sample(time.process_time() - start)
        return results

    def passes(self, state, seconds):
        """One whole pass over the fixed work, then more until `seconds` of
        wall time have gone; the last of them may stop part way."""
        times = [[] for _ in self.w.ops(state)]
        deadline = time.perf_counter() + seconds
        runs = [self.one_pass(state, times)]
        while time.perf_counter() < deadline:
            outcomes = self.one_pass(state, times, deadline)
            for o in (o for ops in outcomes if ops for o in ops):
                o.evidence = None  # later passes are only compared by fingerprint
            runs.append(outcomes)
        return runs, times

    def check(self, state, runs):
        """Oracles on the first pass; every later pass must repeat its fingerprints."""
        failed = 0
        first = runs[0]
        ops = self.w.ops(state)
        for op, outcomes in zip(ops, first):
            if outcomes is None:
                failed += self.w.size(state, op)
                continue
            for outcome in outcomes:
                found = self.w.check(state, op, outcome)
                if found:
                    failed += 1
                    self.failures.append(f"{outcome.fingerprint}: {'; '.join(found)}")
        for later in runs[1:]:
            for op, a, b in zip(ops, first, later):
                if b is None:
                    failed += self.w.size(state, op)
                elif a is not None and [o.fingerprint for o in a] != [o.fingerprint for o in b]:
                    failed += len(b)
                    self.failures.append(f"op {op}: fingerprint changed between passes")
        return failed


def fingerprint_of(runs) -> list[dict]:
    return [o.fingerprint for outcomes in runs[0] if outcomes for o in outcomes]


def wall_seconds(times) -> float:
    """CPU time of one pass over the fixed work: each operation's mean, summed."""
    return sum(statistics.fmean(t) for t in times if t)


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import graphilp
    except ImportError as exc:
        print(f"error: cannot import graphilp from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(graphilp.__file__).resolve().is_relative_to(SRC):
        print(f"error: graphilp was imported from {graphilp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    pinning = pin_to_one_cpu()
    tracer = Tracer()
    tracer.install()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(WORKLOADS[args.workload], tracer, args, workdir)
        setup_s, cpu_setup_s, state = harness.timed_setup()
        detail = {}
        if args.trace:
            runs, times = harness.passes(state, 0)  # exactly one untraced pass
            untraced = wall_seconds(times) * harness.speed.scale()
            tracer.timed = True
            state = harness.setup()
            harness.speed = Speed()
            traced_runs, traced_times = harness.passes(state, 0)
            tracer.timed = False
            runs += traced_runs
            traced = wall_seconds(traced_times) * harness.speed.scale()
            detail.update(untraced_wall_s=untraced, traced_wall_s=traced,
                          trace_overhead_s=traced - untraced)
            metrics = {name: {"value": value, "unit": LAYER_UNITS.get(name, "s")}
                       for name, value in tracer.layer_metrics().items()}
        else:
            runs, times = harness.passes(state, args.seconds)
            scale = harness.speed.scale()
            detail.update(cpu_wall_s=wall_seconds(times), cpu_setup_s=cpu_setup_s,
                          reference_mean_s=REF_SECONDS / scale,
                          reference_samples=len(harness.speed.samples))
            metrics = {"wall_s": wall_seconds(times) * scale, "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        # everything below is checking, outside the timed work
        failed = harness.check(state, runs)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    fingerprint = fingerprint_of(runs)
    digest = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()
    summary = {
        "operations": len(fingerprint),
        "statuses": Counter(f["status"] for f in fingerprint if "status" in f),
        "exit_codes": Counter(f["exit"] for f in fingerprint if "exit" in f),
        "total_objective": sum(f.get("objective") or 0 for f in fingerprint),
        "total_nodes": sum(f.get("nodes") or 0 for f in fingerprint),
    }
    detail.update(workload=args.workload, passes=len(runs), setup_s=setup_s,
                  op_seconds=[[round(t, 6) for t in op] for op in times],
                  summary=summary, fingerprint_sha256=digest, fingerprint=fingerprint,
                  failures=harness.failures, failed_frac=failed / max(1, harness.attempted),
                  provenance=provenance(args, pinning))
    print(f"{args.workload}: {summary['operations']} operations, {len(runs)} pass(es), "
          f"{failed} failed, fingerprint {digest[:16]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for failure in harness.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"perfbench": detail}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": harness.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; one result line per workload."""
    results = {}
    for name in ALL_WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-2]:
            print(line)
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="passes over the fixed work repeat for this long "
                         "(at least one whole pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few operations per workload")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
