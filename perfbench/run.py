"""qreflect benchmark runner.

    python3 perfbench/run.py --workload {split_step,kernels,qsd_moments} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The program runs from ``src/`` in
that checkout; nothing is installed.  One repeat runs the workload's
``--threads 1`` commands (timed as ``wall_s``), then its ``--threads 2``
commands (timed as ``wall_s_2t``), then checks every output; a repeat that
exits non-zero or fails a gate counts as failed.  Repeats continue until
``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are reported: each command's median
time over the repeats, at the reference speed of ``speed.py``, summed over the
commands of the metric, plus ``setup_s`` (median wall time of fresh processes
that import qreflect and build the inputs) and the process's peak RSS.  With
``--trace 1`` an untimed warm-up pass of the ``--threads 1`` commands comes
first, then untraced and traced repeats alternate and the per-layer metrics
of ``spans.py`` are reported; the spans are written to
``.perfbench/trace-<workload>.npz``.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import workloads
from spans import METRICS, SERIAL, THREADED, Tracer, median_metrics
from workloads import ROOT, SRC, StepResult

OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
END_TO_END = [("wall_s", "s"), ("wall_s_2t", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def run_step(step, rep_dir: Path) -> StepResult:
    outdir = rep_dir / step.label
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, value = step.run(outdir)
    except Exception:  # a crash is a failed repeat, not a benchmark error
        rc, value = -1, None
        print(f"{step.label}: {traceback.format_exc()}", file=sys.stderr)
    if rc != 0:
        print(f"{step.label}: exit {rc}: {err.getvalue().strip()[-300:]}", file=sys.stderr)
    return StepResult(rc=rc, stdout=out.getvalue(), outdir=outdir, value=value,
                      seconds=time.perf_counter() - t0)


def run_repeat(wl, rep: int, workdir: Path, tracer=None, scale: bool = False) -> dict:
    """Run and check one repeat; tracing, when given, covers only the commands.

    With ``scale``, a speed probe runs before the first command and after
    each one, and each command's time is also given at the reference speed.
    """
    rep_dir = workdir / f"r{rep}"
    results: dict[str, StepResult] = {}
    scaled: dict[str, float] = {}
    probes = [speed.probe()] if scale else []
    if tracer is not None:
        tracer.repeat, tracer.phase = rep, SERIAL
        tracer.install()
    try:
        for step in wl.serial + wl.threaded:
            if tracer is not None and step is wl.threaded[0]:
                tracer.phase = THREADED
            res = results[step.label] = run_step(step, rep_dir)
            if scale:
                probes.append(speed.probe())
                scaled[step.label] = res.seconds * speed.REF_S / statistics.mean(probes[-2:])
    finally:
        if tracer is not None:
            tracer.uninstall()
    outputs = [p.stat().st_size for s in wl.serial if (rep_dir / s.label).is_dir()
               for p in (rep_dir / s.label).iterdir()]
    try:
        failed = checks.failures(wl.name, wl.observe(results))
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        failed = [f"outputs missing or unreadable: {exc!r}"]
    for reason in failed:
        print(f"repeat {rep}: {reason}", file=sys.stderr)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return {"wall_s": sum(results[s.label].seconds for s in wl.serial),
            "wall_s_2t": sum(results[s.label].seconds for s in wl.threaded),
            "failed": bool(failed), "steps": {k: r.seconds for k, r in results.items()},
            "scaled": scaled, "probes": probes,
            "traced": tracer is not None, "output_files": len(outputs),
            "output_bytes": sum(outputs)}


def measure_setup(workload: str, seed: int) -> dict[str, float]:
    """Median wall time of a fresh set-up process and its median in-process
    import time.  Not scaled by the speed probe: a fresh process spends much
    of its time in the kernel, which the probe does not track.

    One untimed process first compiles the bytecode caches of a fresh checkout.
    """
    cmd = [sys.executable, str(Path(workloads.__file__)), "--workload", workload,
           "--seed", str(seed)]
    walls, imports = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i > 0:
            walls.append(wall)
            imports.append(json.loads(proc.stdout.splitlines()[-1])["import_qreflect_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports)}


def run_record(args, repeats: list[dict], setup: dict[str, float]) -> dict:
    """Machine, versions and source identity of this run."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_model": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
        "src_sha256": digest.hexdigest(), "speed_ref_s": speed.REF_S, "setup": setup,
        "repeats": repeats,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree; benchmark checkouts
    usually are not, and then ``src_sha256`` identifies the source."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median_sum(repeats: list[dict], steps) -> float:
    """Sum over commands of each command's median time (at the reference
    speed) over the repeats; one slow burst then moves one sample only."""
    return sum(statistics.median(r["scaled"][s.label] for r in repeats) for s in steps)


def end_to_end(wl, repeats: list[dict], setup: dict[str, float]) -> dict[str, float]:
    return {
        "wall_s": median_sum(repeats, wl.serial),
        "wall_s_2t": median_sum(repeats, wl.threaded),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, repeats: list[dict], import_s: float) -> dict[str, float]:
    cols = tracer.columns()
    traced = [i for i, r in enumerate(repeats) if r["traced"]]
    per_rep = []
    for i in traced:
        m = tracer.repeat_metrics(cols, i)
        r = repeats[i]
        m["trace.wall_s"] = r["wall_s"]
        m["trace.self_coverage"] = m["trace.self_sum_s"] / r["wall_s"]
        m["cli.output_files"] = r["output_files"]
        m["cli.output_bytes"] = r["output_bytes"]
        per_rep.append(m)
    out = median_metrics(per_rep)
    out["trace.untraced_wall_s"] = statistics.median(
        r["wall_s"] for r in repeats if not r["traced"])
    out["trace.overhead_frac"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    out["import.qreflect_s"] = import_s
    missing = [name for name, _ in METRICS if name not in out]
    if missing:
        print(f"metrics without a traced function, reported as 0: {missing}", file=sys.stderr)
    return {name: float(out.get(name, 0.0)) for name, _ in METRICS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qreflect" / "__init__.py").is_file():
        print(f"no qreflect source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workloads.use_checkout_source()

    # a fixed path, so the resolved configs the CLI writes have fixed bytes
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup = measure_setup(args.workload, args.seed)
        wl = workloads.build(args.workload, args.seed)
        tracer = Tracer() if args.trace else None
        if args.trace:
            # warm-up, so that the first untraced repeat is not the only cold one
            for step in wl.serial:
                run_step(step, workdir / "warmup")
            shutil.rmtree(workdir / "warmup", ignore_errors=True)
        min_repeats = 2 if args.trace else 1
        repeats: list[dict] = []
        start = time.perf_counter()
        # traced runs alternate untraced and traced repeats, at least one each
        while time.perf_counter() - start < args.seconds or len(repeats) < min_repeats:
            traced = args.trace and len(repeats) % 2 == 1
            repeats.append(run_repeat(wl, len(repeats), workdir, tracer if traced else None,
                                      scale=not args.trace))
        OUT.mkdir(exist_ok=True)
        if args.trace:
            metrics = per_layer(tracer, repeats, setup["import_s"])
            units = dict(METRICS)
            tracer.write(OUT / f"trace-{args.workload}.npz", args.workload)
        else:
            metrics = end_to_end(wl, repeats, setup)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args, repeats, setup)
    failed = sum(r["failed"] for r in repeats)
    result = {"correct": failed == 0, "attempted": len(repeats), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
