"""qcat benchmark: a single-process, single-threaded, closed-loop driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qcat source tree; the library is imported from its
src/ directory.  The seed makes the inputs; after set-up, passes run back
to back until S seconds have passed (at least one).
Every job of every pass is checked against a known answer.

--trace 0 prints the end-to-end metrics: pass_s (median pass time), setup_s
(median time from interpreter start to the first pass, over this process and
SETUP_PROBES fresh ones), peak_rss_mb.  --trace 1 alternates untraced and
traced passes, ending on a traced one, and prints the per-layer metrics (see
spans.py).  The last line of stdout is one JSON object; the lines before it
give quartiles, sample counts and the environment, and a fuller record goes
to perfbench/out/.

Each pass ends with a full cycle collection, inside the timed region, so
freeing the pass's cyclic garbage is part of its time.

The machine this was tuned on runs the same instructions up to 1.5x slower
for seconds at a time.  So with --trace 0 a SpeedProbe times a fixed
loop of small numpy products every PROBE_INTERVAL_S, and pass_s and setup_s are the
measured wall times scaled to the nominal speed at which that loop takes
REF_NOMINAL_S.  The raw wall times are printed and recorded beside them.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_PROBES = 4
REF_ITERS = 32
# The reference loop's time at nominal speed, about its typical time on the
# 2-vCPU VM of the README's baseline.
REF_NOMINAL_S = 0.001
PROBE_INTERVAL_S = 0.04
BLAS_THREADS = 1
# numpy's BLAS would otherwise start one thread per core; on these small
# matrices that costs CPU time and gains no wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put this tree's src/ first on the path and import qcat from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qcat", "__init__.py")):
        raise SystemExit(f"error: no qcat sources under {src}")
    # sys.path[0] is this script's directory; the package root replaces it.
    sys.path[0:1] = [src, ROOT]
    import qcat

    if not os.path.abspath(qcat.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: qcat imported from {qcat.__file__}, not from {src}")
    from perfbench import workloads

    return workloads


def blas_threads():
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the tree if it is a git checkout; read from .git, no subprocess."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
    }


def summary(values):
    """Median, quartiles, sample count, and the highest of p90/p95/p99 that
    has at least ten samples above it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
        pct = statistics.quantiles(values, n=100)
        for p in (99, 95, 90):
            if sum(v > pct[p - 1] for v in values) >= 10:
                out[f"p{p}"] = pct[p - 1]
                break
    else:
        out.update(q1=values[0], q3=values[0])
    return out


@dataclass
class Pass:
    wall_s: float  # without the probe's own samples
    cpu_s: float
    scaled_s: float  # wall_s at nominal speed; wall_s when there is no probe
    ref_s: float | None  # mean reference-loop time over the pass
    rec: object = None  # the span recorder of a traced pass


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def reference_loop(mats) -> float:
    """Wall time of a fixed loop of small complex numpy products, a probe of
    the machine's speed.  qcat's own hot path is made of such products, and
    on the VM of the README's baseline this loop slows down in proportion to
    qcat's passes; a pure-Python integer loop slows down less than they do."""
    import numpy as np

    t0 = time.perf_counter()
    for k in range(REF_ITERS):
        m = mats[k % len(mats)]
        r = m @ m
        r = np.kron(r[:2, :2], m[:2, :2])
        r.conj().T.sum()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while the program runs.

    Every PROBE_INTERVAL_S of wall time, SIGALRM makes the main thread run
    the reference loop twice, between two bytecodes of whatever it is
    running, and time the second round.  The probe's own time is taken out
    of every interval it measures.
    The samples are spread evenly over time, so each stands for an equal
    slice of an interval, and a slice in which the loop took r seconds ran
    at REF_NOMINAL_S / r of nominal speed.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((n, n)) + 0j for n in (2, 3, 4, 6, 8)]
        self.samples: list[tuple[float, float, float]] = []  # start, loop time, own cost
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives while sampling is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        # a first, untimed round warms the caches, so that the timed one
        # does not depend on how much of them the program's work has used
        reference_loop(self._mats)
        ref = reference_loop(self._mats)
        self.samples.append((t0, ref, time.perf_counter() - t0))
        self._busy = False

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float) -> tuple[float, float, float, float]:
        """Wall time of [t0, t1) without the samples taken in it, that time
        scaled to nominal speed, the mean loop time, and the samples' cost.
        An interval with no sample in it takes the last one before it."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        cost = sum(s[2] for s in inside)
        refs = [s[1] for s in inside] or [s[1] for s in self.samples if s[0] < t0][-1:]
        if not refs:
            raise RuntimeError("no speed sample before the end of the interval")
        wall = t1 - t0 - cost
        scale = statistics.fmean(REF_NOMINAL_S / r for r in refs)
        return wall, wall * scale, statistics.fmean(refs), cost


def timed_pass(wl, jobs, rec=None, probe=None) -> tuple[Pass, list]:
    """One pass, ended by a full cycle collection: a category and its engine
    form a reference cycle, so freeing a pass's garbage is part of its cost."""
    c0, t0 = cpu_s(), time.perf_counter()
    if rec is None:
        res = wl.run_pass(jobs)
        gc.collect()
    else:
        with rec.span("bench.pass"):
            res = wl.run_pass(jobs, rec)
            with rec.span("bench.gc"):
                gc.collect()
    t1, c1 = time.perf_counter(), cpu_s()
    if probe is None:
        return Pass(t1 - t0, c1 - c0, t1 - t0, None, rec), res
    wall, scaled, ref, cost = probe.measure(t0, t1)
    return Pass(wall, c1 - c0 - cost, scaled, ref, rec), res


def timed_passes(wl, jobs, seconds, trace=False, probe=None) -> tuple[list[Pass], list]:
    """Closed loop: start the next pass when the last one ends, until
    `seconds` have passed.  With `trace`, passes alternate untraced and
    traced, and the loop ends on a traced pass, so each traced pass has an
    untraced neighbour run just before it.  Returns the passes and every job
    outcome."""
    from perfbench import spans

    passes, outcomes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(passes) % 2:
            with spans.traced() as rec:
                p, res = timed_pass(wl, jobs, rec, probe)
        else:
            p, res = timed_pass(wl, jobs, None, probe)
        passes.append(p)
        outcomes.extend(res)
        if time.perf_counter() >= deadline and (not trace or p.rec is not None):
            return passes, outcomes


def probe_setups(args) -> list[tuple[float, float]]:
    """Set-up times (import, inputs, warm-up) of SETUP_PROBES fresh
    processes, each as (wall, scaled to nominal speed)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        wall, scaled = map(float, proc.stdout.split()[-2:])
        out.append((wall, scaled))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # traced runs keep the probe off, so that it adds nothing to any span
    probe = None if args.trace else SpeedProbe().start()
    workdir = None
    try:
        wl = import_program()
        if args.workload not in wl.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        jobs = wl.WORKLOADS[args.workload](args.seed, workdir)
        t1 = time.perf_counter()
        setup = (t1 - T_START, t1 - T_START) if probe is None else probe.measure(T_START, t1)[:2]
        if args.setup_probe:
            print(*setup)
            return 0
        return measure(wl, args, jobs, setup, probe)
    finally:
        if probe is not None:
            probe.stop()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, jobs, setup, probe) -> int:
    from perfbench import spans

    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "env": env}
    passes, outcomes = timed_passes(wl, jobs, args.seconds, args.trace, probe)
    plain = [p for p in passes if p.rec is None]
    record.update(
        pass_wall_s=summary([p.wall_s for p in plain]),
        cpu_s=summary([p.cpu_s for p in plain]),
        passes=[[p.wall_s, p.cpu_s, p.scaled_s, p.ref_s, p.rec is not None] for p in passes],
    )
    if args.trace:
        traced = [p for p in passes if p.rec is not None]
        per_pass = [spans.pass_metrics(p.rec) for p in traced]
        metrics = {
            name: statistics.median(p[name] for p in per_pass)
            for name in spans.PER_LAYER
            if name != "trace.overhead_ratio"
        }
        # each traced pass over the untraced pass just before it, so that
        # the machine's drift over the run cancels out
        metrics["trace.overhead_ratio"] = statistics.median(
            b.wall_s / a.wall_s for a, b in zip(passes[0::2], passes[1::2])
        )
        units = spans.PER_LAYER
        record.update(
            traced_pass_s=summary([p.wall_s for p in traced]),
            per_pass=per_pass,
            span_tree=spans.span_tree([p.rec for p in traced]),
        )
    else:
        probe.stop()  # before the set-up probes start
        record.update(
            pass_s=summary([p.scaled_s for p in plain]),
            ref_s=summary([p.ref_s for p in plain]),
            speed_samples=len(probe.samples),
        )
        setups = [setup] + probe_setups(args)
        metrics = {
            "pass_s": record["pass_s"]["median"],
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        record.update(setup_times=setups)

    failed = [(name, why) for name, why in outcomes if why is not None]
    record.update(
        attempted=len(outcomes),
        failed=len(failed),
        fail_ratio=len(failed) / len(outcomes),
        failures=failed[:20],
        metrics=metrics,
    )
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"env {json.dumps(env)}")
    for key in ("pass_s", "pass_wall_s", "cpu_s", "ref_s", "traced_pass_s"):
        if key in record:
            print(f"{key} {json.dumps(record[key])}")
    print(f"fail_ratio {record['fail_ratio']} ({len(failed)}/{len(outcomes)} jobs)")
    for name, why in failed[:5]:
        print(f"failed {name}: {why}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
