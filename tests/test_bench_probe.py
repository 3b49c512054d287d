"""Guard for the traced benchmark: every layer it wraps must still be called.

``bench/probe.py`` wraps module attributes of ``spinopt.evaluation`` and
``spinopt.optimizer`` from outside; a refactor that renames one, or stops
calling it through the module, would otherwise leave a layer silently at 0.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "bench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("bench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_traces_every_layer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "schema": "spinopt.config/1",
                "scenario": {"num_links": 6, "seed": 3},
                "experiment": {
                    "algorithms": ["exhaustive", "mst_dp", "random"],
                    "num_drops": 2,
                    "frames_per_drop": 3,
                },
            }
        )
    )
    record = tmp_path / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(record), "1", "evaluate",
         "--config", str(config), "--out", str(tmp_path / "out"),
         "--threads", "1", "--format", "both"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(record.read_text())["layers"]
    silent = [name for name in load_probe().LAYERS if layers[name]["calls"] == 0]
    assert silent == []
