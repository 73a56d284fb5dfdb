"""mekit benchmark: four workloads over the ME pipeline, each operation
checked against a reference computed apart from mekit.

    python3 bench/run.py --workload {sweep,closure,montecarlo,cli,all}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; mekit is imported from ``src/``.  One caller
runs one operation at a time (a closed loop).  A run repeats whole rounds of
the workload's operations until ``--seconds`` have passed, so every run
attempts the same operations in the same proportions.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced run (see ``spans.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; it is also written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# one BLAS thread: single-caller timings, steady on a shared machine; set
# before numpy is first imported, and passed on to every child process
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
# per-op medians need a middle value
MIN_ROUNDS = 3
OUT_DIR = ".bench_out"

END_TO_END = [("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("digits_min", "digits"),
              ("digits_mean", "digits")]


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH_DIR])
    return env


def setup_seconds(workload, seed, env, repeats):
    """Median over fresh interpreters of import mekit + build the channels."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "probe.py"),
                               workload, str(seed)], env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Loop:
    """Runs whole rounds of ops, timing each op and checking its output."""

    def __init__(self, ops, refs):
        self.ops, self.refs = ops, refs
        self.times = [[] for _ in ops]
        self.errors, self.problems = [], []
        self.attempted = self.failed = self.wrong = 0

    def round(self, call=lambda f: f()):
        import checks
        busy = 0.0
        for op, ref, times in zip(self.ops, self.refs, self.times):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call(op.run)
            except Exception as exc:  # a failed op is counted, not fatal
                self.failed += 1
                self.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            times.append(dt)
            try:
                self.errors += op.check(out, ref)
            except checks.CheckFailed as exc:
                self.wrong += 1
                self.problems.append(f"{op.name}: wrong output: {exc}")
        return busy

    def run_for(self, seconds, call=lambda f: f(), rounds=None):
        """Whole rounds until ``seconds`` have passed and at least
        ``MIN_ROUNDS`` ran (or exactly ``rounds``); returns (rounds, busy
        seconds)."""
        start, n, busy = time.perf_counter(), 0, 0.0
        while (n < rounds) if rounds else \
                (n < MIN_ROUNDS or time.perf_counter() - start < seconds):
            busy += self.round(call)
            n += 1
        return n, busy

    def latencies(self):
        """Each op's median latency over the rounds: a slow moment of the
        machine in one round does not move it."""
        return sorted(statistics.median(t) for t in self.times if t)

def peak_rss_mb(children):
    import resource
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace, root):
    import checks
    import inputs
    import workloads

    env = child_env(root)
    data = inputs.make(workload, seed)
    setup = None
    if not trace or workload == "cli":
        setup = setup_seconds(workload, seed, env, SETUP_REPEATS)
    chans = inputs.setup_channels(workload, data)
    cli_dir = os.path.join(root, OUT_DIR, f"cli-specs-{seed}")
    ops = workloads.build(workload, data, chans, cli_dir=cli_dir, env=env,
                          in_process=bool(trace))
    refs = [op.reference() for op in ops]
    loop = Loop(ops, refs)

    if not trace:
        loop.run_for(seconds)
        lat = loop.latencies()
        digits = [checks.digits(e) for e in loop.errors] or [0.0]
        values = {
            "setup_s": setup,
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb(children=workload == "cli"),
            "digits_min": min(digits),
            "digits_mean": statistics.fmean(digits),
        }
        units = dict(END_TO_END)
    else:
        import spans as tracing
        rounds, plain = loop.run_for(seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced = loop.run_for(0, call=tracer.op, rounds=rounds)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics(rounds)
        values["cli.import_s"] = setup or 0.0
        values["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        units = dict(tracing.LAYER_METRICS)
        spans_path = os.path.join(root, OUT_DIR, f"spans-{workload}-{seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)

    for line in loop.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    result = {"correct": loop.wrong == 0, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mekit", "__init__.py")):
        print("error: run from the repository root; src/mekit not found", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), BENCH_DIR]
    import inputs
    names = inputs.WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in inputs.WORKLOADS for w in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    for w in names:
        result = run_workload(w, args.seed, args.seconds, args.trace, root)
        for k, m in result["metrics"].items():
            print(f"{w} {k} = {m['value']:.6g} {m['unit']}")
        print(f"{w} attempted = {result['attempted']} failed = {result['failed']} "
              f"correct = {result['correct']} blas_threads = {BLAS_THREADS}")
        line = json.dumps(result)
        with open(os.path.join(root, OUT_DIR,
                               f"result-{w}-{args.seed}-trace{args.trace}.json"), "w") as fh:
            fh.write(line + "\n")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
