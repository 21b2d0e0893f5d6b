"""Self-test of the benchmark's output gates and metric names.

Runs each workload's commands once, checks that every gate passes on the real
outputs, then feeds each gate one deliberately wrong observable and checks
that the gate rejects it.  Also checks that BENCHMARK.json names exactly the
metrics run.py reports.  Takes about half a minute.

    python3 perfbench/selftest.py [--seed N]
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys

import checks
import run
import workloads
from spans import METRICS


def _scale(key, factor):
    def mutate(obs):
        obs[key] *= factor
    return mutate


def _bump_last(key, delta):
    def mutate(obs):
        obs[key][-1] += delta
    return mutate


def _break_digest(tag):
    def mutate(obs):
        one, two = obs["csv_digests"][tag]
        name = sorted(two)[0]
        two[name] = "0" * 64
    return mutate


def _drop_file(tag):
    def mutate(obs):
        one, two = obs["csv_digests"][tag]
        del two[sorted(two)[-1]]
    return mutate


def _set(key, value):
    def mutate(obs):
        obs[key] = value
    return mutate


def _set_rc(label, rc):
    def mutate(obs):
        obs["rc"][label] = rc
    return mutate


def _raise_tail(obs):
    totals = obs["fig5_totals"]
    totals[max(totals)] = 2.0 * totals[min(totals)]


def _scale_total(key, D, factor):
    def mutate(obs):
        obs[key][D] *= factor
    return mutate


def _nudge_slice(obs):
    ref = obs["slice_reference"][1.0]
    obs["slice"][1.0][3] += 2e-6 * max(abs(v) for v in ref)


# gate -> one wrong result it must reject
MUTATIONS = {
    "split_step": [
        (checks.exit_codes, _set_rc("unitary", 3)),
        (checks.born_ratio, _scale("unitary_reflected", 0.9)),
        (checks.norm_ledger, _bump_last("unitary_norms", 2e-9)),
        (checks.fig1_reference, _scale("fig1_reflected", 1.0 + 2e-6)),
        (checks.localized, _scale("qsd_var_x", 1.06)),
        (checks.threads_identical, _break_digest("qsd")),
    ],
    "kernels": [
        (checks.exit_codes, _set_rc("fig5", 2)),
        (checks.fig3_ratio, _scale_total("fig3_totals", 10.0, 1.03)),
        (checks.fig5_decreasing, _raise_tail),
        (checks.fig5_ratio, _scale_total("fig5_totals", 10.0, 1.03)),
        (checks.conditional_slice, _nudge_slice),
    ],
    "qsd_moments": [
        (checks.exit_codes, _set_rc("p_t2", 1)),
        (checks.rate_x, _set("rate_x", 0.0)),
        (checks.rate_p, _set("rate_p", 2.0)),
        (checks.threads_identical, _drop_file("p")),
    ],
}


def check_benchmark_json() -> list[str]:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", METRICS)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(names):
            problems.append(f"BENCHMARK.json {key} differs from the reported metrics")
    return problems


def observe_once(name: str, seed: int) -> dict:
    wl = workloads.build(name, seed)
    workdir = run.OUT / f"selftest-{name}-{os.getpid()}"
    try:
        results = {s.label: run.run_step(s, workdir) for s in wl.serial + wl.threaded}
        return wl.observe(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    workloads.use_checkout_source()
    problems = check_benchmark_json()
    for name, cases in MUTATIONS.items():
        if {g for g, _ in cases} != set(checks.GATES[name]):
            problems.append(f"{name}: some gate has no self-test")
        obs = observe_once(name, seed)
        clean = checks.failures(name, obs)
        print(f"{name}: real outputs {'pass' if not clean else 'FAIL: ' + '; '.join(clean)}")
        problems += clean
        for gate, mutate in cases:
            wrong = copy.deepcopy(obs)
            mutate(wrong)
            reason = gate(wrong)
            print(f"  {gate.__name__:20s} {'rejects' if reason else 'ACCEPTS'} the wrong "
                  f"result: {reason}")
            if not reason:
                problems.append(f"{name}: {gate.__name__} accepts a wrong result")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
