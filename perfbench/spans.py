"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of every
measured qreflect module plus the numpy/scipy FFT entry points.  Each wrapped
call records one span: name, start, end, parent span, repeat and phase (the
workload is fixed for a run).  Spans live in per-thread buffers of flat arrays,
so ``--threads 2`` runs keep correct parent links, and are written once when
the run ends.  Nothing is written into the CLI's output directories.

Each public name is patched in every module that holds it, so for example both
``model2.integrate_oscillatory`` and ``cli.conditional_reflected_env`` route
through the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# modules whose public functions are traced; timescales, config and params
# are left unmeasured (no workload spends measurable time in them)
LAYERS = ("cli", "svgplot", "unitary", "grids", "qsd", "model1", "model2",
          "oscquad", "potentials")
METHODS = (("grids", "WaveFunction", "moments"), ("qsd", "NoiseStream", "increment_at"))
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfftn", "irfftn", "hfft", "ihfft")
# phases of one repeat: the --threads 1 commands, then the --threads 2 ones
SERIAL, THREADED = 1, 2

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("unitary.self_s", "s"), ("unitary.propagate.calls", "count"),
    ("unitary.propagate.s", "s"), ("unitary.propagate.steps", "count"),
    ("unitary.propagate.us_per_step", "us"), ("unitary.reflection_probability.s", "s"),
    ("grids.self_s", "s"), ("grids.to_momentum.calls", "count"), ("grids.to_momentum.s", "s"),
    ("grids.WaveFunction.moments.calls", "count"), ("grids.WaveFunction.moments.s", "s"),
    ("fft.self_s", "s"), ("fft.calls", "count"), ("fft.points", "count"),
    ("fft.calls_per_step", "ratio"), ("fft.bytes_computed", "B"),
    ("qsd.self_s", "s"),
    ("qsd.step_trajectory.calls", "count"), ("qsd.step_trajectory.s", "s"),
    ("qsd.step_trajectory.us_per_call", "us"),
    ("qsd.run_wavefunction_trajectory.calls", "count"),
    ("qsd.run_wavefunction_trajectory.s", "s"),
    ("qsd.moment_step.calls", "count"), ("qsd.moment_step.s", "s"),
    ("qsd.moment_step.us_per_call", "us"),
    ("qsd.NoiseStream.increment_at.calls", "count"), ("qsd.NoiseStream.increment_at.s", "s"),
    ("qsd.NoiseStream.increment_at.us_per_call", "us"),
    ("qsd.run_moment_trajectory.calls", "count"), ("qsd.run_moment_trajectory.s", "s"),
    ("qsd.fluctuation_report.s", "s"),
    ("qsd.run_ensemble.s", "s"), ("qsd.run_ensemble.workers", "count"),
    ("qsd.run_ensemble.tasks", "count"), ("qsd.run_ensemble.task_cpu_s", "s"),
    ("qsd.run_ensemble.parallel_eff", "ratio"), ("qsd.run_ensemble.wait_s", "s"),
    ("qsd.trajectory.failed", "count"),
    ("oscquad.self_s", "s"), ("oscquad.integrate_oscillatory.calls", "count"),
    ("oscquad.integrate_oscillatory.s", "s"), ("oscquad.envelope_nodes", "count"),
    ("oscquad.ns_per_node", "ns"), ("oscquad.panel_nodes.calls", "count"),
    ("oscquad.panel_nodes.nodes", "count"),
    ("model1.self_s", "s"), ("model1.reflected_density_x.calls", "count"),
    ("model1.reflected_density_x.s", "s"), ("model1.reflected_density_p.calls", "count"),
    ("model1.reflected_density_p.s", "s"), ("model1.total_reflected.calls", "count"),
    ("model1.total_reflected.s", "s"),
    ("model2.self_s", "s"), ("model2.reflected_density_env.calls", "count"),
    ("model2.reflected_density_env.s", "s"), ("model2.reflected_density_env.us_per_call", "us"),
    ("model2.conditional_reflected_env.calls", "count"),
    ("model2.conditional_reflected_env.s", "s"),
    ("model2.conditional_reflected_env.ms_per_call", "ms"),
    ("model2.total_reflected_model2.s", "s"), ("model2.clamp_density.clamped", "count"),
    ("model2.clamp_density.clamped_mass", "prob"),
    ("potentials.self_s", "s"), ("potentials.potential_momentum.calls", "count"),
    ("potentials.potential_momentum.s", "s"), ("potentials.potential_position.calls", "count"),
    ("potentials.potential_position.s", "s"),
    ("cli.self_s", "s"), ("cli.main.calls", "count"), ("cli.main.s", "s"),
    ("cli.output_files", "count"), ("cli.output_bytes", "B"),
    ("svgplot.self_s", "s"), ("svgplot.line_plot.calls", "count"), ("svgplot.line_plot.s", "s"),
    ("import.qreflect_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.self_sum_s", "s"), ("trace.self_coverage", "ratio"), ("trace.spans", "count"),
]


class SpanBuffer:
    """Spans opened by one thread, stored column-wise in flat arrays."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.name = array("i")
        self.parent = array("i")
        self.repeat = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")  # one span-specific count (steps, points, nodes)
        self.stack: list[int] = []

    def open(self, name_id: int, repeat: int, phase: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.repeat.append(repeat)
        self.phase.append(phase)
        self.start.append(0.0)
        self.end.append(0.0)
        self.attr.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1


class Tracer:
    """Installs span wrappers while a traced repeat runs, then aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[SpanBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.repeat = 0
        self.phase = SERIAL
        # counts that belong to no single span: (repeat, phase, key) -> value
        self.counters: dict[tuple[int, int, str], float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> SpanBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = SpanBuffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
            return buf

    def _count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[(self.repeat, self.phase, key)] += value

    def _wrap(self, fn, name: str, hook=None):
        """Span wrapper; ``hook(buf, idx, fn, args, kwargs)`` replaces the
        plain call where a span carries extra data."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            idx = buf.open(name_id, tracer.repeat, tracer.phase)
            t0 = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(buf, idx, fn, args, kwargs)
            finally:
                buf.close(idx, t0, time.perf_counter())

        return wrapper

    # -- hooks for spans that carry counts ----------------------------------------

    @staticmethod
    def _fft_hook(buf, idx, fn, args, kwargs):
        data = args[0] if args else kwargs.get("a", kwargs.get("x"))
        buf.attr[idx] = np.size(data)
        return fn(*args, **kwargs)

    @staticmethod
    def _propagate_hook(buf, idx, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        buf.attr[idx] = bound.arguments["n_steps"]
        return fn(*args, **kwargs)

    @staticmethod
    def _panel_nodes_hook(buf, idx, fn, args, kwargs):
        nodes, weights = fn(*args, **kwargs)
        buf.attr[idx] = nodes.size
        return nodes, weights

    def _oscillatory_hook(self, buf, idx, fn, args, kwargs):
        envelope = args[0] if args else kwargs.pop("envelope")
        # the envelope is kernel code: its span goes to the kernel's layer
        name_id = self._name_id(envelope.__module__.rpartition(".")[2] + ".envelope")
        nodes = [0]

        def counted(s):
            nodes[0] += np.size(s)
            i = buf.open(name_id, self.repeat, self.phase)
            t0 = time.perf_counter()
            try:
                return envelope(s)
            finally:
                buf.close(i, t0, time.perf_counter())

        try:
            return fn(counted, *args[1:], **kwargs)
        finally:
            buf.attr[idx] = nodes[0]

    def _clamp_hook(self, buf, idx, fn, args, kwargs):
        out = fn(*args, **kwargs)
        before = np.asarray(args[0] if args else kwargs["density"], float)
        changed = out != before
        self._count("clamped", float(np.count_nonzero(changed)))
        self._count("clamped_mass", float(np.sum(np.abs(before[changed]))))
        return out

    def _ensemble_hook(self, buf, idx, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        task = bound.arguments["task"]
        workers = max(1, int(bound.arguments["workers"]))
        buf.attr[idx] = workers
        tracer = self

        def timed(seed):
            c0 = time.thread_time()
            try:
                return task(seed)
            except Exception:
                tracer._count("failed", 1.0)
                raise
            finally:
                tracer._count("task_cpu_s", time.thread_time() - c0)
                tracer._count("tasks", 1.0)

        bound.arguments["task"] = timed
        return fn(*bound.args, **bound.kwargs)

    # -- installing and removing the wrappers -------------------------------------

    def _targets(self):
        """(original, span name, hook) for everything that gets a span."""
        hooks = {
            "unitary.propagate": self._propagate_hook,
            "oscquad.integrate_oscillatory": self._oscillatory_hook,
            "oscquad.panel_nodes": self._panel_nodes_hook,
            "model2.clamp_density": self._clamp_hook,
            "qsd.run_ensemble": self._ensemble_hook,
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"qreflect.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    yield obj, name, hooks.get(name)
        fft_modules = [importlib.import_module("numpy.fft")]
        try:
            fft_modules.append(importlib.import_module("scipy.fft"))
        except ImportError:
            pass
        for mod in fft_modules:
            for attr in FFT_NAMES:
                if hasattr(mod, attr):
                    yield getattr(mod, attr), f"fft.{attr}", self._fft_hook

    def install(self) -> None:
        originals = {}
        for obj, name, hook in self._targets():
            originals[id(obj)] = (obj, self._wrap(obj, name, hook))
        holders = [m for n, m in list(sys.modules.items())
                   if n == "qreflect" or n.startswith("qreflect.")]
        holders += [sys.modules["numpy.fft"]]
        if "scipy.fft" in sys.modules:
            holders.append(sys.modules["scipy.fft"])
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"qreflect.{layer}"), cls_name)
            self._patch(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as flat columns; ``parent`` indexes the same columns."""
        cols = {k: [] for k in ("name", "parent", "repeat", "phase", "start", "end",
                                "attr", "thread")}
        offset = 0
        for buf in self.buffers:
            n = len(buf.name)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "repeat", "phase", "start", "end", "attr"):
                cols[key].append(np.array(getattr(buf, key)))
            cols["thread"].append(np.full(n, buf.thread_id, dtype=np.int64))
            offset += n
        return {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}

    def write(self, path, workload: str) -> None:
        """Write every span once, as compressed columns plus the name table."""
        np.savez_compressed(path, workload=np.array(workload),
                            names=np.array(self.names), **self.columns())

    def repeat_metrics(self, cols: dict[str, np.ndarray], repeat: int) -> dict[str, float]:
        """Per-layer metrics of one traced repeat.

        Layer calls, busy and self times come from the --threads 1 phase, the
        part whose wall time is ``wall_s``; the run_ensemble efficiency comes
        from the --threads 2 phase, which ``wall_s_2t`` times.
        """
        names = np.array(self.names + [""])
        layer_of = np.array([n.split(".")[0] for n in self.names] + [""])
        in_rep = cols["repeat"] == repeat
        dur = cols["end"] - cols["start"]
        parent = cols["parent"].astype(np.int64)
        has_parent = parent >= 0
        parent_name = np.full(dur.shape, len(self.names), dtype=np.int64)
        parent_name[has_parent] = cols["name"][parent[has_parent]]
        child = np.zeros(dur.shape)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        span_layer = layer_of[cols["name"].astype(np.int64)]
        # outermost span of each name, so recursion is not counted twice
        outer = names[cols["name"].astype(np.int64)] != names[parent_name]
        outer_fft = span_layer != layer_of[parent_name]
        serial = in_rep & (cols["phase"] == SERIAL)
        threaded = in_rep & (cols["phase"] == THREADED)

        out: dict[str, float] = {}

        def sel(name: str, mask=serial):
            nid = self._ids.get(name, -1)
            return mask & (cols["name"] == nid) & outer

        for layer in LAYERS + ("fft",):
            out[f"{layer}.self_s"] = float(np.sum(self_time[serial & (span_layer == layer)]))
        for metric, _ in METRICS:
            head, _, tail = metric.rpartition(".")
            if tail in ("calls", "s") and metric not in out and head in self._ids:
                mask = sel(head)
                out[metric] = float(np.count_nonzero(mask)) if tail == "calls" else \
                    float(np.sum(dur[mask]))
        fft_mask = serial & (span_layer == "fft") & outer_fft
        out["fft.calls"] = float(np.count_nonzero(fft_mask))
        out["fft.points"] = float(np.sum(cols["attr"][fft_mask]))
        out["fft.bytes_computed"] = 32.0 * out["fft.points"]  # complex128 read + write
        out["unitary.propagate.steps"] = float(np.sum(cols["attr"][sel("unitary.propagate")]))
        out["oscquad.envelope_nodes"] = float(
            np.sum(cols["attr"][sel("oscquad.integrate_oscillatory")]))
        out["oscquad.panel_nodes.nodes"] = float(
            np.sum(cols["attr"][sel("oscquad.panel_nodes")]))

        ens = sel("qsd.run_ensemble", threaded)
        ens_wall = float(np.sum(dur[ens]))
        workers = float(np.max(cols["attr"][ens])) if np.any(ens) else 0.0
        count = self.counters
        task_cpu = count[(repeat, THREADED, "task_cpu_s")]
        out["qsd.run_ensemble.s"] = ens_wall
        out["qsd.run_ensemble.workers"] = workers
        out["qsd.run_ensemble.tasks"] = count[(repeat, THREADED, "tasks")]
        out["qsd.run_ensemble.task_cpu_s"] = task_cpu
        out["qsd.run_ensemble.parallel_eff"] = (task_cpu / (workers * ens_wall)
                                                if ens_wall > 0 else 0.0)
        out["qsd.run_ensemble.wait_s"] = workers * ens_wall - task_cpu
        out["qsd.trajectory.failed"] = sum(count[(repeat, ph, "failed")]
                                           for ph in (SERIAL, THREADED))
        out["model2.clamp_density.clamped"] = count[(repeat, SERIAL, "clamped")]
        out["model2.clamp_density.clamped_mass"] = count[(repeat, SERIAL, "clamped_mass")]

        def ratio(num: float, den: float, scale: float) -> float:
            return scale * num / den if den > 0 else 0.0

        out["unitary.propagate.us_per_step"] = ratio(
            out["unitary.propagate.s"], out["unitary.propagate.steps"], 1e6)
        out["fft.calls_per_step"] = ratio(
            out["fft.calls"], out["unitary.propagate.steps"] + out["qsd.step_trajectory.calls"], 1.0)
        out["qsd.step_trajectory.us_per_call"] = ratio(
            out["qsd.step_trajectory.s"], out["qsd.step_trajectory.calls"], 1e6)
        out["qsd.moment_step.us_per_call"] = ratio(
            out["qsd.moment_step.s"], out["qsd.moment_step.calls"], 1e6)
        out["qsd.NoiseStream.increment_at.us_per_call"] = ratio(
            out["qsd.NoiseStream.increment_at.s"], out["qsd.NoiseStream.increment_at.calls"], 1e6)
        out["oscquad.ns_per_node"] = ratio(
            out["oscquad.integrate_oscillatory.s"], out["oscquad.envelope_nodes"], 1e9)
        out["model2.reflected_density_env.us_per_call"] = ratio(
            out["model2.reflected_density_env.s"], out["model2.reflected_density_env.calls"], 1e6)
        out["model2.conditional_reflected_env.ms_per_call"] = ratio(
            out["model2.conditional_reflected_env.s"],
            out["model2.conditional_reflected_env.calls"], 1e3)
        out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS + ("fft",))
        out["trace.spans"] = float(np.count_nonzero(in_rep))
        return out


def median_metrics(per_repeat: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced repeats."""
    return {k: statistics.median(m[k] for m in per_repeat) for k in per_repeat[0]}
