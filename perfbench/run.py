"""occam-rrm benchmark.

    python3 perfbench/run.py --workload rules_run --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
checkout, against the package in its `src/`. Set-up (imports, config
generation and loading) is timed in this process and in fresh probe
processes spread over the run; the workload repeats until `--seconds` have
passed, every repetition's artifacts are checked, and the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

`--trace 0` reports the end-to-end metrics: `setup_s` is the median set-up
time; `run_s` and `cpu_s` add up each operation's fastest time over the
repetitions (see `fastest_total`).
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import artifacts  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 6  # fresh processes timed for setup_s, besides this one


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: do the set-up only and print its duration")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "occam_rrm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src}/occam_rrm not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import importlib
    import pkgutil

    import occam_rrm

    # Every module, including those the program imports lazily inside
    # function bodies: importing is set-up, not part of a timed repetition.
    for info in pkgutil.walk_packages(occam_rrm.__path__, "occam_rrm."):
        importlib.import_module(info.name)

    if Path(occam_rrm.__file__).resolve().parent != (src / "occam_rrm").resolve():
        raise SystemExit(f"perfbench: imported occam_rrm from {occam_rrm.__file__}, not {src}")


def probe_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def run_rep(workload, ops, seed, tracer=None):
    """One repetition: every operation once. Returns (wall s per op, cpu s
    per op, error per op); an error is a nonzero exit code or an exception."""
    shutil.rmtree(workloads.out_root(workload), ignore_errors=True)
    if tracer is not None:
        tracer.install()
    walls, cpus, errors = [], [], []
    for op in ops:
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            code = workloads.run_op(op, seed)
            errors.append(None if code == 0 else f"exit code {code}")
        except Exception:  # any failure of the program counts against it
            errors.append(traceback.format_exc(limit=-3))
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0)
    if tracer is not None:
        tracer.uninstall()
    return walls, cpus, errors


def fastest_total(per_op_times) -> float:
    """Sum over operations of each one's fastest time across repetitions.

    Other load on the host only ever adds time to an operation, and on a
    shared machine it comes and goes within seconds, so the fastest of many
    short samples of each operation is far steadier from run to run than a
    median over whole repetitions."""
    return sum(min(times) for times in zip(*per_op_times))


def check_rep(ops, seed, reference):
    """Problems per op. `reference` maps op name -> digests that every
    repetition must reproduce (committed ones at the default seed, else
    those of the first repetition); it is filled in when empty."""
    problems = []
    for op in ops:
        found = []
        try:
            if op.kind == "sweep":
                found += artifacts.check_sweep(op.out_dir, list(workloads.SWEEP_VALUES))
            elif op.kind == "run":
                found += artifacts.check_run(op.out_dir)
            else:
                found += artifacts.check_tune(
                    op.out_dir, lambda theta: workloads.reevaluate_tune(theta, seed))
            digests = artifacts.digest_tree(op.out_dir)
        except Exception:  # an unreadable artifact is a failed check, not a crash
            problems.append(found + [traceback.format_exc(limit=-3)])
            continue
        if op.name in reference:
            found += artifacts.compare_digests(digests, reference[op.name], op.name)
        else:
            reference[op.name] = digests
        problems.append(found)
    return problems


def failures(ops, errors, problems) -> list:
    """(op name, reasons) for each failed operation of one repetition."""
    return [
        (op.name, ([error] if error else []) + found)
        for op, error, found in zip(ops, errors, problems)
        if error or found
    ]


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def source_commit() -> str:
    """The commit the checkout was made from, when it carries .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, reps) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "repetitions": reps,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": source_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_program()
    ops = workloads.prepare(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s]
    # setup_s is an end-to-end metric only. The probes are spread over the
    # run, between repetitions, so that their median does not hinge on one
    # moment of the host's load; the time they take is not counted against
    # --seconds.
    probes_left = 0 if args.trace else SETUP_PROBES
    probe_pause = 0.0

    reference = {}
    if args.seed == artifacts.DEFAULT_SEED:
        reference = {k: dict(v) for k, v in artifacts.load_digests()[args.workload].items()}

    if args.trace:
        from tracing import Tracer

    untraced, traced, layer_runs = [], [], []
    last_tracer = None
    failed = attempted = 0
    begin = time.perf_counter()
    # At least one repetition of each kind, then until the time is up.
    while (not (untraced and (traced or not args.trace))
           or time.perf_counter() - begin - probe_pause < args.seconds):
        elapsed = time.perf_counter() - begin - probe_pause
        if probes_left and elapsed >= args.seconds * (SETUP_PROBES - probes_left) / SETUP_PROBES:
            t0 = time.perf_counter()
            setup_samples.append(probe_setup(args))
            probes_left -= 1
            probe_pause += time.perf_counter() - t0
            continue
        tracing_now = bool(args.trace) and len(traced) < len(untraced)
        tracer = Tracer() if tracing_now else None
        wall, cpu, errors = run_rep(args.workload, ops, args.seed, tracer)
        problems = check_rep(ops, args.seed, reference)
        attempted += len(ops)
        for name, found in failures(ops, errors, problems):
            failed += 1
            print(f"FAILED {args.workload}/{name}{' traced' if tracing_now else ''}:"
                  + "".join(f"\n  {p}" for p in found[:10]), file=sys.stderr)
        (traced if tracing_now else untraced).append((wall, cpu))
        if tracing_now:
            layer_runs.append(tracer.layer_metrics())
            last_tracer = tracer

    setup_samples += [probe_setup(args) for _ in range(probes_left)]
    meta = metadata(args, len(untraced) + len(traced))
    result_dir = workloads.WORK_DIR / args.workload
    if args.trace:
        run_untraced = fastest_total(w for w, _ in untraced)
        run_traced = fastest_total(w for w, _ in traced)
        metrics = {
            name: {"value": statistics.median_low(run[name][0] for run in layer_runs),
                   "unit": unit}
            for name, (_, unit) in layer_runs[-1].items()
        }
        metrics["trace.untraced_run_s"] = {"value": run_untraced, "unit": "s"}
        metrics["trace.traced_run_s"] = {"value": run_traced, "unit": "s"}
        # The computed transfer round trip is work the tracer adds on purpose,
        # not overhead of recording spans.
        transfer = metrics["experiments.transfer_pickle_s"]["value"]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * ((run_traced - transfer) / run_untraced - 1.0), "unit": "%"}
        last_tracer.save(result_dir / "trace_last.npz")
        note = ("per-layer metrics cover the parent process only; pool workers run untraced"
                if args.workload == "sweep_jobs2" else "per-layer metrics cover every process")
        meta["trace_note"] = note
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "run_s": {"value": fastest_total(w for w, _ in untraced), "unit": "s"},
            "cpu_s": {"value": fastest_total(c for _, c in untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }

    failed_frac = failed / attempted
    (result_dir / "result.json").write_text(json.dumps(
        {"meta": meta, "attempted": attempted, "failed": failed,
         "failed_frac": failed_frac, "metrics": metrics,
         "setup_samples_s": setup_samples, "untraced_reps": untraced,
         "traced_reps": traced}, indent=2, sort_keys=True) + "\n")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"failed_frac {failed_frac:.6g} ({failed} of {attempted} operations failed)")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
