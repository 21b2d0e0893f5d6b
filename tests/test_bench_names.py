"""The traced benchmark reads qreflect functions by name: keep those names alive."""

import importlib.util
import os

from qreflect import cli

_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_traced_figure_run_yields_every_per_layer_metric(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["figures", "--figure", "2", "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.repeat_metrics(tracer.columns(), 0)
    assert metrics["model1.reflected_density_p.calls"] > 0
