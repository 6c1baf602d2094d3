"""scripts/scale.py runs each network workload once and prints its numbers."""

import importlib.util
from pathlib import Path

from rxmflow.workflow import TOOLS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"


def load_scale():
    spec = importlib.util.spec_from_file_location("scale_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_network_workload_prints_its_time_stages_memory_and_faults(capsys):
    assert load_scale().main(["--rows", "1000"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    for workload in ("network_anomaly", "network_classify"):
        values = {metric: value for name, metric, value in lines if name == workload}
        assert list(values) == (["rows", "run_s"]
                                + [f"stage.{tool}_s" for tool in TOOLS]
                                + ["peak_rss_mb", "minor_faults", "steps", "exit_code"])
        assert values["rows"] == "1000"
        assert values["steps"] == "5/5" and values["exit_code"] == "0"
        stages = sum(float(values[f"stage.{tool}_s"]) for tool in TOOLS)
        assert float(values["run_s"]) >= stages - 0.005     # each printed to 3 decimals
        assert float(values["peak_rss_mb"]) > 0 and int(values["minor_faults"]) > 0
