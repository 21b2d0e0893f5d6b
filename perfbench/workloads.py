"""The benchmark's three workloads: inputs made from the seed, the commands of
one repeat, and the observables its output gates read.

Run as a script, this file is the set-up probe: a fresh process that imports
``qreflect`` and ``qreflect.cli`` and builds one workload's inputs, printing
its in-process import time as JSON.

    python3 perfbench/workloads.py --workload split_step --seed 1
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("split_step", "kernels", "qsd_moments")


@dataclass
class StepResult:
    rc: int
    stdout: str
    outdir: Path
    value: object = None
    seconds: float = 0.0


@dataclass
class Step:
    """One command of a repeat; ``run(outdir)`` returns (rc, value)."""

    label: str
    run: Callable[[Path], tuple[int, object]]


@dataclass
class Workload:
    name: str
    serial: list[Step]       # timed as wall_s (--threads 1)
    threaded: list[Step]     # timed as wall_s_2t (--threads 2)
    observe: Callable[[dict[str, StepResult]], dict]


def cli_step(label: str, argv: list[str]) -> Step:
    import qreflect.cli

    def run(outdir: Path):
        # looked up at call time so the traced run sees its wrapper
        return qreflect.cli.main(argv + ["--outdir", str(outdir)]), None

    return Step(label, run)


def csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def csv_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*.csv"))}


def _totals(path: Path, key: str) -> dict[float, float]:
    return {float(r[key]): float(r["total_reflected"]) for r in csv_rows(path)}


def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


# -- split_step ---------------------------------------------------------------------


def split_step(seed: int) -> Workload:
    from qreflect.cli import build_config
    from qreflect.unitary import born_reflection

    unitary = ["unitary", "--sigma", "5", "--V0", "0.01", "--a", "0.1", "--n_points", "2048"]
    qsd = ["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction",
           "--n_traj", "8", "--seed", str(seed)]
    qsd_params = build_config(qsd).physical_params()
    inputs = {
        "born_total": born_reflection(build_config(unitary).physical_params()).total,
        "fig1_reference": reference()["fig1_reflected"],
        "sigma_q2": qsd_params.sigma_q ** 2,
        "hbar": qsd_params.hbar,
    }

    def observe(res: dict[str, StepResult]) -> dict:
        fig1 = csv_rows(res["fig1"].outdir / "probabilities.csv")
        ledger = csv_rows(res["unitary"].outdir / "probabilities.csv")
        final = csv_rows(res["qsd_t1"].outdir / "ensemble_summary.csv")[-1]
        return dict(
            inputs,
            rc={k: r.rc for k, r in res.items()},
            fig1_reflected=float(fig1[-1]["reflected"]),
            unitary_reflected=float(ledger[-1]["reflected"]),
            unitary_norms=[float(r["norm"]) for r in ledger],
            qsd_var_x=float(final["var_x"]),
            qsd_cov_xp=float(final["cov_xp"]),
            csv_digests={"qsd": (csv_digests(res["qsd_t1"].outdir),
                                 csv_digests(res["qsd_t2"].outdir))},
        )

    return Workload(
        "split_step",
        serial=[cli_step("fig1", ["figures", "--figure", "1"]),
                cli_step("unitary", unitary),
                cli_step("qsd_t1", qsd + ["--threads", "1"])],
        threaded=[cli_step("qsd_t2", qsd + ["--threads", "2"])],
        observe=observe)


# -- kernels ------------------------------------------------------------------------

SLICE_D = (0.01, 1.0, 10.0)
SLICE_STRIDE = 40


def conditional_slice_inputs():
    """Figure-4 configurations and every 40th point of the p grid that
    ``qreflect model2 --P`` sweeps; the target momentum is P = 0."""
    import numpy as np
    from qreflect.cli import build_config
    from qreflect.model2 import Model2Config

    cfg = build_config(["model2", "--M", "10", "--sigma", "100", "--a", "0.1",
                        "--V0", "0.01", "--steady-target", "true",
                        "--D_sweep", ",".join(f"{d:g}" for d in SLICE_D)])
    params = cfg.physical_params().replace(D=SLICE_D[0])
    m2 = Model2Config(params, tau=cfg.resolved_tau(), steady_target=True)
    p_grid = np.linspace(-3.0 * params.p_bar, params.p_bar, 401)
    p_grid = p_grid[np.abs(p_grid - params.p_bar) > 1e-9]
    points = [float(p) for p in p_grid[::SLICE_STRIDE]]
    return {D: m2.with_D(D) for D in SLICE_D}, points


def slice_step(configs, points) -> Step:
    import qreflect.model2

    def run(outdir: Path):
        return 0, {D: [qreflect.model2.conditional_reflected_env(c, p, 0.0, D=D)
                       for p in points] for D, c in configs.items()}

    return Step("conditional_slice", run)


def kernels(seed: int) -> Workload:
    # deterministic kernels: the seed changes no input
    configs, points = conditional_slice_inputs()
    ref = reference()["conditional_slice"]
    inputs = {"slice_reference": {D: ref[f"{D:g}"] for D in SLICE_D}}
    model1 = ["model1", "--coupling", "x", "--D_sweep", "0.001,0.01,0.1", "--sigma", "10"]

    def observe(res: dict[str, StepResult]) -> dict:
        return dict(
            inputs,
            rc={k: r.rc for k, r in res.items()},
            fig3_totals=_totals(res["fig3"].outdir / "total_vs_Dp_a0.1.csv", "D_p"),
            fig5_totals=_totals(res["fig5"].outdir / "total_vs_D_a0.1.csv", "D"),
            slice=res["conditional_slice"].value,
        )

    return Workload(
        "kernels",
        serial=[cli_step(f"fig{n}", ["figures", "--figure", str(n)]) for n in (2, 3, 4, 5)]
        + [cli_step("model1_t1", model1 + ["--threads", "1"]), slice_step(configs, points)],
        # no kernels command uses the thread pool: three --threads 2 re-runs of
        # the model1 sweep are a control that must track its --threads 1 time
        threaded=[cli_step(f"model1_t2_{i}", model1 + ["--threads", "2"]) for i in range(3)],
        observe=observe)


# -- qsd_moments ----------------------------------------------------------------------


def qsd_moments(seed: int) -> Workload:
    from qreflect.cli import build_config

    base = ["qsd", "--level", "moments", "--n_traj", "128", "--seed", str(seed)]
    x = base + ["--coupling", "x", "--D", "1"]
    p = base + ["--coupling", "p", "--D_p", "1"]
    p_params = build_config(p).physical_params()
    inputs = {"D": build_config(x).physical_params().D,
              "t_z": p_params.m * p_params.sigma / p_params.p_bar}

    def rate(r: StepResult) -> float:
        line = next(ln for ln in r.stdout.splitlines()
                    if ln.startswith("fitted total momentum fluctuation rate:"))
        return float(line.rsplit(":", 1)[1])

    def observe(res: dict[str, StepResult]) -> dict:
        return dict(
            inputs,
            rc={k: r.rc for k, r in res.items()},
            rate_x=rate(res["x_t1"]),
            rate_p=rate(res["p_t1"]),
            csv_digests={c: (csv_digests(res[f"{c}_t1"].outdir),
                             csv_digests(res[f"{c}_t2"].outdir)) for c in ("x", "p")},
        )

    return Workload(
        "qsd_moments",
        serial=[cli_step("x_t1", x + ["--threads", "1"]), cli_step("p_t1", p + ["--threads", "1"])],
        threaded=[cli_step("x_t2", x + ["--threads", "2"]),
                  cli_step("p_t2", p + ["--threads", "2"])],
        observe=observe)


def build(name: str, seed: int) -> Workload:
    return {"split_step": split_step, "kernels": kernels, "qsd_moments": qsd_moments}[name](seed)


def use_checkout_source() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="set-up probe: import and build inputs")
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    ns = parser.parse_args()
    use_checkout_source()
    t0 = time.perf_counter()
    import qreflect  # noqa: E402
    t1 = time.perf_counter()
    import qreflect.cli  # noqa: E402,F401
    build(ns.workload, ns.seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_qreflect_s": t1 - t0, "setup_in_process_s": t2 - t0,
                      "version": qreflect.__version__}))
