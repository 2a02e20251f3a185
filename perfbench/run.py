"""Benchmark of the vlplus toolkit, run against its sources from outside.

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 30 --trace 0

Workloads: certify-ladder, series and decompose (see README.md).  A run
times the set-up in several fresh interpreters, then makes whole rounds
over its workload's ops, each call in a child forked from this process,
which has imported vlplus and run nothing.  Every time is scaled to a
reference speed of the machine, sampled while it is taken (pace.py).  An
op's time is its median over the rounds; a timing metric is a sum of op
medians.  With --trace 1 every op also runs with spans around the
package's public functions (spans.py), and the per-layer metrics are
printed instead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Progress and per-op figures go to stderr; a traced run
also writes its spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import pace

HASH_SEED = "0"
SETUP_PROBES = 9
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="import and prepare the inputs in DIR, then exit (times set-up)")
    return p.parse_args(argv)


def import_vlplus():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vlplus", "__init__.py")):
        log(f"no vlplus sources under {SRC}")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import vlplus
    import vlplus.cli  # noqa: F401  (the package itself loads every other submodule)

    if not os.path.abspath(vlplus.__file__).startswith(SRC + os.sep):
        log(f"imported vlplus from {vlplus.__file__}, not from {SRC}")
        sys.exit(2)


# ---------------------------------------------------------------------------
# forked children
# ---------------------------------------------------------------------------

class BudgetExceeded(Exception):
    pass


def fork_call(fn, timeout: float | None = None):
    """Run fn() in a forked child and return its JSON-able result.

    The child inherits this process's imports and nothing else that the
    program computed, since this process computes nothing.  On timeout the
    child is killed and reaped, and BudgetExceeded is raised.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps({"ok": fn()})
        except BaseException:  # the child must always report and exit
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([read_fd], [], [], wait)
            if not ready:
                os.kill(pid, signal.SIGKILL)
                raise BudgetExceeded(f"over the {timeout} s budget")
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    reply = json.loads(b"".join(chunks) or b'{"error": "child died without a reply"}')
    if "error" in reply:
        raise RuntimeError(f"benchmark child failed:\n{reply['error']}")
    return reply["ok"]


def run_call(call, op_id: str, traced: bool) -> dict:
    """Fork, run the call's steps (timed one by one), measure, check."""
    def child():
        speed = pace.Pace()
        tracer = None
        if traced:
            import spans

            tracer = spans.Tracer(op_id, clock=lambda: time.perf_counter() - speed.spent)
            tracer.install()
        results, errors, raw = [], [], []
        speed.start()
        for step in call.steps:
            start, spent = time.perf_counter(), speed.spent
            try:
                results.append(step())
                errors.append(None)
            except (Exception, SystemExit) as e:  # a crash of the program is a failed op
                results.append(None)
                errors.append(f"{type(e).__name__}: {e}")
            raw.append(time.perf_counter() - start - (speed.spent - spent))
        speed.stop()
        scale = speed.scale()
        times = [t * scale for t in raw]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            report = call.check(results)
        except Exception as e:  # output too malformed to check is a wrong output
            report = {"problems": [f"unreadable output: {type(e).__name__}: {e}"]}
        report.update(times=times, raw_times=raw, errors=errors, rss_kb=rss_kb)
        if tracer is not None:
            report["layers"] = layer_values(tracer, scale)
            report["spans"] = tracer.export_spans()
        return report

    try:
        return fork_call(child, call.timeout)
    except BudgetExceeded as e:
        return {"problems": [], "times": [0.0] * len(call.steps),
                "raw_times": [0.0] * len(call.steps),
                "errors": [str(e)] * len(call.steps), "rss_kb": 0}


def layer_values(tracer, scale: float) -> dict:
    """Layer self times, scaled like the call's own time, and counts."""
    out = {}
    for layer, seconds in tracer.times.items():
        out["cli.self_s" if layer == "cli" else
            "intmat.self_s" if layer == "intmat" else f"{layer}_s"] = seconds * scale
    for key, n in tracer.counts.items():
        out["intmat.calls" if key == "intmat_calls" else key] = n
    return out


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, workdir: str):
    import workloads

    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, workdir, fork_call)


def time_setup(args, workdir: str) -> list[float]:
    """Fresh interpreters that import vlplus and prepare the inputs.

    Each probe prints the clock when its inputs are ready; perf_counter is
    CLOCK_MONOTONIC, shared by all processes, so interpreter exit and the
    parent's wait stay out of the sample.  A probe is scaled by reference
    samples taken just before and just after it (pace.py), since a sampling
    signal cannot reach an interpreter that is still starting.
    """
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"setup-probe-{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", probe_dir]
        before = pace.reference_time()
        start = time.perf_counter()
        done = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {done.returncode}:\n{done.stderr}")
        elapsed = float(done.stdout.split()[-1]) - start
        after = pace.reference_time()
        samples.append(elapsed * pace.REFERENCE_S / ((before + after) / 2))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def assert_no_program_state() -> None:
    """Every functools cache in vlplus is still empty in this process."""
    for name, mod in list(sys.modules.items()):
        if name == "vlplus" or name.startswith("vlplus."):
            for value in vars(mod).values():
                info = getattr(value, "cache_info", None)
                if callable(info) and info().currsize:
                    raise RuntimeError(f"{name}.{value.__name__} holds cached results")


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: set[str] = set()
        self.rss_kb = 0
        self.digests: dict[str, str] = {}
        self.raw_s = 0.0  # unscaled time of the steps that did not fail
        self.scaled_s = 0.0

    def add(self, call, report: dict, count: bool = True) -> float:
        """Record one call's report; returns the time of its steps that did not fail."""
        self.problems += [f"{call.name}: {p}" for p in report["problems"]]
        if count:
            self.attempted += len(report["errors"])
            self.failed += sum(1 for e in report["errors"] if e)
        self.errors.update(f"{call.name}: {e}" for e in report["errors"] if e)
        self.rss_kb = max(self.rss_kb, report["rss_kb"])
        digest = report.get("digest")
        if digest is not None and self.digests.setdefault(call.name, digest) != digest:
            self.problems.append(f"{call.name}: certificate bytes differ between rounds")
        self.raw_s += sum(t for t, e in zip(report["raw_times"], report["errors"]) if not e)
        scaled = sum(t for t, e in zip(report["times"], report["errors"]) if not e)
        self.scaled_s += scaled
        return scaled


def run_rounds(plan, rounds: int, traced: bool, tally: Tally):
    """Per op: untraced times per round and, when traced, layer values per round."""
    times = {op.name: [] for op in plan.ops}
    traced_times = {op.name: [] for op in plan.ops}
    layers = {op.name: [] for op in plan.ops}
    trace_dump = {}
    for r in range(rounds):
        for op in plan.ops:
            # in a traced run, one untraced pass sets the overhead baseline
            if not traced or r == 0:
                times[op.name].append(sum(
                    tally.add(c, run_call(c, op.name, False), count=not traced)
                    for c in op.calls))
            if not traced:
                continue
            total, merged = 0.0, {}
            for c in op.calls:
                report = run_call(c, op.name, True)
                total += tally.add(c, report)
                for k, v in report["layers"].items():
                    merged[k] = merged.get(k, 0) + v
                for k, v in report.get("counts", {}).items():
                    merged[k] = merged.get(k, 0) + v
                if r == 0:
                    trace_dump[f"{op.name} / {c.name}"] = report["spans"]
            traced_times[op.name].append(total)
            layers[op.name].append(merged)
        log(f"round {r + 1}/{rounds} done")
    return times, traced_times, layers, trace_dump


def cold_cache_check(layers: dict) -> None:
    """Fail if a later round did less counted work than the first."""
    for op, per_round in layers.items():
        first = per_round[0]
        for r, values in enumerate(per_round[1:], 2):
            for key, n in first.items():
                if not key.endswith("_s") and values.get(key, 0) < n:
                    raise RuntimeError(
                        f"{op}: round {r} counted {values.get(key, 0)} {key}, round 1 "
                        f"counted {n}; program state survived between ops")


def sum_medians(times: dict, names) -> float:
    return sum(statistics.median(times[n]) for n in names)


def layer_metrics(plan, layers: dict, traced_times: dict, times: dict) -> dict:
    """Per-layer metrics: per op, medians of times and first-round counts; then sums."""
    total: dict[str, float] = {}
    for op in plan.ops:
        per_round = layers[op.name]
        for key in set().union(*per_round):
            if key.endswith("_s"):
                value = statistics.median(v.get(key, 0.0) for v in per_round)
            else:
                value = per_round[0].get(key, 0)
            total[key] = total.get(key, 0) + value

    def ratio(num, den):
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    for layer in ("qseries.euler", "qseries.theta", "qseries.character"):
        total[f"{layer}_hit_ratio"] = ratio(f"{layer}_hits", f"{layer}_calls")
    total["certify.fusion_orthogonal_hit_ratio"] = ratio(
        "certify.rule.fusion_orthogonal_applied", "certify.rule.fusion_orthogonal_calls")
    names = [op.name for op in plan.ops]
    total["trace.overhead_s"] = sum_medians(traced_times, names) - sum_medians(times, names)
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # a fixed hash seed keeps set and dict orders, and so every count,
        # the same from run to run
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    import_vlplus()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
        return 2
    if args.setup_only:
        prepare(args.workload, args.seed, args.setup_only)
        print(time.perf_counter())
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    rounds = max(2, args.seconds // workloads.ROUND_SECONDS[args.workload])
    log(f"workload {args.workload}, seed {args.seed}, PYTHONHASHSEED={HASH_SEED}, "
        f"{rounds} rounds, trace {args.trace}")
    try:
        setup = time_setup(args, workdir)
        plan = prepare(args.workload, args.seed, os.path.join(workdir, "inputs"))
        assert_no_program_state()
        if plan.info:
            log(f"inputs: {json.dumps(plan.info)}")
        tally = Tally()
        times, traced_times, layers, trace_dump = run_rounds(
            plan, rounds, bool(args.trace), tally)
        if plan.probe is not None:
            tally.add(plan.probe, run_call(plan.probe, "probe", False))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(os.path.dirname(workdir)) and not os.listdir(os.path.dirname(workdir)):
            os.rmdir(os.path.dirname(workdir))

    for op in plan.ops:
        log(f"{op.name}: " + ", ".join(f"{t:.3f}" for t in times[op.name]) + " s")
    log(f"all timed steps: {tally.raw_s:.3f} s measured, {tally.scaled_s:.3f} s scaled "
        f"to the reference speed (pace.py)")
    for e in sorted(tally.errors):
        log(f"failed: {e}")
    for p in tally.problems:
        log(f"WRONG: {p}")

    names = [op.name for op in plan.ops]
    if args.trace:
        cold_cache_check(layers)
        values = layer_metrics(plan, layers, traced_times, times)
        wanted = spec["per_layer"]
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "hash_seed": HASH_SEED,
                       "rounds": rounds, "inputs": plan.info, "layers": layers,
                       "spans_round1": trace_dump}, fh)
    else:
        wall = sum_medians(times, names)
        kinds = {op.kind for op in plan.ops}

        def kind_s(kind):
            # a workload without certify and verify ops reports its wall time
            if kind not in kinds:
                return wall
            return sum_medians(times, [op.name for op in plan.ops if op.kind == kind])

        values = {
            "wall_s": wall,
            "certify_s": kind_s("certify"),
            "verify_s": kind_s("verify"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": tally.rss_kb / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
