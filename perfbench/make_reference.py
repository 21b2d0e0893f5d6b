"""Regenerate reference.json: figure 1's final reflected probability and the
strided conditional-kernel slice, computed by the current source tree.

The committed file holds the values of the commit that introduced the
benchmark; regenerate it only when a change is meant to alter these numbers.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.use_checkout_source()
    import qreflect.cli

    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        if qreflect.cli.main(["figures", "--figure", "1", "--outdir", tmp]) != 0:
            raise SystemExit("figure 1 failed")
        fig1 = workloads.csv_rows(Path(tmp) / "probabilities.csv")[-1]["reflected"]
    configs, points = workloads.conditional_slice_inputs()
    _, values = workloads.slice_step(configs, points).run(None)
    ref = {"fig1_reflected": float(fig1),
           "conditional_slice": {f"{D:g}": v for D, v in values.items()},
           "slice_points": points}
    (workloads.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(json.dumps(ref)[:200])
