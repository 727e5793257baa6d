"""Benchmark harness for pchgrav.

Run from the repository root:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run is one fresh process.  It first times several set-ups, each in a
fresh process of its own (perfbench/prepare.py: start Python, import
`pchgrav` from `src/`, write the workload inputs), and reads the inputs the
last one wrote.  Then it runs timed passes, one after another, until
they add up to `--seconds` and number at least two, checking the outputs
of every pass.  Before the first set-up and after every set-up and pass
it times a block of runs of a fixed calibration kernel.  Each set-up and
pass time is scaled by the reference kernel time over the mean kernel
time of the blocks either side of it, so that the host's drifting speed
cancels; the unscaled figures are in the run record.  With `--trace 1`
it then runs one more pass with every public pchgrav function wrapped by
a timing span, and the workload's seed probe, and reports per-layer
metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics that BENCHMARK.json lists for the mode.  Each run also appends its
full record (metrics, digests, and a machine and software fingerprint) to
`.perfbench/runs.jsonl`.  `--workload all` runs the three workloads, each
in its own process, and prints a table.
"""

import os

# One BLAS thread: with `verify --threads 1` a run uses one compute thread,
# within the machine's cores.  Set before numpy is first imported; the
# set-up processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
RUNS_FILE = STATE_DIR / "runs.jsonl"
# set-up repeats: at least the minimum, more while they fit in SETUP_SECONDS
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 9
SETUP_SECONDS = 3.0
SETUP_TIMEOUT_S = 120
# a verify-default pass is about as long as a run, and one pass alone leaves
# the host's speed during it to the two calibration blocks at its ends
MIN_PASSES = 2
# calibration: at least CAL_SAMPLES kernel runs per block, and a block after
# a pass lasts at least CAL_SHARE of it; scaled times refer to CAL_REF_S, the
# median kernel time on the baseline machine
CAL_SAMPLES = 6
CAL_SHARE = 0.05
CAL_REF_S = 0.0355
EXIT_FAILED = 1
EXIT_NO_SOURCE = 2


def set_up(args, workdir: Path) -> float:
    """Seconds from starting a fresh set-up process until its inputs are ready."""
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with code {proc.returncode}")
    return float(proc.stdout.split()[-1]) - t0


def calibration_kernel(a):
    """Fixed work of the kinds pchgrav does, with no pchgrav code in it:
    interpreter loops, small per-site matrix products and array updates,
    and JSON encoding.  About 35 ms on the baseline machine."""
    s = 0.0
    for i in range(15000):
        s += (i * 0.5) % 7.0
    b = np.einsum("nij,njk->nik", a, a)
    for k in range(200):
        b = b[:, ::-1] * 0.999 + a[k % 7]
    return s + float(b.sum()) + len(json.dumps(b[:256].round(6).tolist()))


def calibrate(blocks: list, seconds: float = 0.0) -> None:
    """Append a block of calibration kernel wall times lasting at least `seconds`."""
    a = np.random.default_rng(0).standard_normal((2048, 4, 4))
    block = []
    while len(block) < CAL_SAMPLES or sum(block) < seconds:
        t0 = time.perf_counter()
        calibration_kernel(a)
        block.append(time.perf_counter() - t0)
    blocks.append(block)


def scaled(samples: list, blocks: list) -> list:
    """Sample i times CAL_REF_S over the mean kernel time of blocks i and i+1."""
    return [x * CAL_REF_S / statistics.fmean(before + after)
            for x, before, after in zip(samples, blocks, blocks[1:])]


def timed(fn):
    """(result or raised exception, wall seconds, user+system CPU seconds)."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        out = exc
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return out, wall, cpu


def tree_digest(directory: Path) -> str:
    """Digest of the Python files of one directory: a code identity."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:
        return "unknown"


def fingerprint(args, pg, wl) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": BLAS_THREADS,
        "pchgrav": getattr(pg, "__version__", "unknown"),
        "git_commit": git_commit(),
        "source_digest": tree_digest(SRC / "pchgrav"),
        "bench_digest": tree_digest(HERE),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": wl.input_seed,
        "grid_sizes": list(wl.grid_sizes),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def earlier_digest(fp: dict):
    """Output digest of an earlier run of the same workload, inputs and code."""
    key = ("workload", "input_seed", "source_digest", "bench_digest", "numpy", "blas",
           "cpu_model")
    try:
        lines = RUNS_FILE.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        try:
            rec = json.loads(line)
            earlier = rec["fingerprint"]
        except (ValueError, KeyError, TypeError):
            continue
        if all(fp.get(k) == earlier.get(k) for k in key):
            return rec.get("digest")
    return None


def run_workload(args, spec) -> int:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workdir = STATE_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, cal = [], []
        calibrate(cal)
        while len(setups) < SETUP_MIN_REPEATS or (
                len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_SECONDS):
            setups.append(set_up(args, workdir))
            calibrate(cal)
        import pchgrav.cli  # noqa: F401  (the CLI is what the passes call)

        pg = sys.modules["pchgrav"]
        wl = WORKLOADS[args.workload](pg, args.seed, workdir)
        rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = failed = 0
        digests, walls, cpus = [], [], []

        def account(out, what):
            nonlocal attempted, failed
            if isinstance(out, Exception):
                n_ops, failures, dig = wl.ops_per_pass, [f"{type(out).__name__}: {out}"], None
                failed_ops = n_ops
            else:
                n_ops, failures, dig = wl.check(out)
                failed_ops = min(len(failures), n_ops)
            attempted += n_ops
            failed += failed_ops
            digests.append(dig)
            for msg in failures:
                print(f"perfbench: {args.workload} {what}: {msg}", file=sys.stderr)

        # measure --seconds of passes, at least MIN_PASSES; checks are not counted
        while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
            out, wall, cpu = timed(wl.run)
            walls.append(wall)
            cpus.append(cpu)
            calibrate(cal, CAL_SHARE * wall)
            account(out, f"pass {len(walls)}")

        unscaled = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                    "cpu_s": statistics.median(cpus)}
        n = len(setups)      # blocks 0..n bracket the set-ups, n.. the passes
        metrics = {
            "setup_s": statistics.median(scaled(setups, cal[:n + 1])),
            "wall_s": statistics.median(scaled(walls, cal[n:])),
            "cpu_s": statistics.median(scaled(cpus, cal[n:])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        layers = {}
        if args.trace:
            tracer = Tracer()
            with tracer:
                out, traced_wall, _ = timed(wl.run)
            account(out, "traced pass")
            layers = layer_metrics(tracer, traced_wall, unscaled["wall_s"])
            probe_failures = wl.seed_probe()
            for msg in probe_failures:
                print(f"perfbench: {args.workload} seed probe: {msg}", file=sys.stderr)
            layers["seed_probe.failures"] = len(probe_failures)
            layers["top_self_s"] = sorted(((v.self_s, k) for k, v in tracer.stats.items()),
                                          reverse=True)[:8]

        fp = fingerprint(args, pg, wl)
        # determinism: every pass, and every earlier run of this code on the
        # same inputs, must produce the same output digest
        run_digest = digests[0]
        if len(set(digests)) != 1:
            print(f"perfbench: output digests differ between passes: {digests}", file=sys.stderr)
            failed += 1
        before = earlier_digest(fp)
        if before is not None and before != run_digest:
            print(f"perfbench: output digest {run_digest} differs from the earlier run's {before}",
                  file=sys.stderr)
            failed += 1

        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = layers if args.trace else metrics
        missing = [m["name"] for m in listed if m["name"] not in values]
        if missing:
            print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        result = {
            "correct": failed == 0 and not missing,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in listed if m["name"] in values},
        }
        record = {"fingerprint": fp, "digest": run_digest, "passes": len(walls),
                  "rss_before_passes_mb": rss_before_mb,
                  "setup_samples_s": setups, "wall_samples_s": walls, "cpu_samples_s": cpus,
                  "calibration_blocks_s": cal, "unscaled": unscaled,
                  "fail_share": failed / attempted, **metrics, "layers": layers,
                  "result": result}
        with open(RUNS_FILE, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        print(json.dumps({"fingerprint": fp}))
        print(f"{args.workload} seed {args.seed}: setup_s {metrics['setup_s']:.4f} s, "
              f"wall_s {metrics['wall_s']:.4f} s (median of {len(walls)}), "
              f"cpu_s {metrics['cpu_s']:.4f} s, peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
              f"fail_share {failed / attempted:.4f} ({failed}/{attempted}); "
              f"unscaled setup_s {unscaled['setup_s']:.4f} s, "
              f"wall_s {unscaled['wall_s']:.4f} s, cpu_s {unscaled['cpu_s']:.4f} s")
        print(json.dumps(result))
        return 0 if result["correct"] else EXIT_FAILED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process; a table of the end-to-end metrics."""
    from workloads import WORKLOADS

    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, EXIT_FAILED) or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or EXIT_FAILED
        status = status or proc.returncode
        result = json.loads(lines[-1])
        m = result["metrics"]
        rows.append((name, *(f"{m[k]['value']:.4f} {m[k]['unit']}" for k in
                             ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")),
                     f"{result['failed'] / result['attempted']:.4f}"))
    header = ("workload", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "fail_share")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "pchgrav" / "__init__.py").is_file():
        print(f"perfbench: no pchgrav source under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    STATE_DIR.mkdir(exist_ok=True)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
