"""``tools/scale_grid.py`` runs on a tiny grid point and reports its layers
under the names ``BENCHMARK.json`` gives them."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_POINT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import scale_grid
scale_grid.REPEATS = 1
scale_grid.ROLLOUTS = 8
print(json.dumps(scale_grid.point(2, 2, 2, 4)))
"""


def test_scale_grid_point_times_the_benchmark_layers():
    proc = subprocess.run(
        [sys.executable, "-c", _POINT, str(ROOT / "tools")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert (got["n"], got["d_x"], got["k"], got["T"]) == (2, 2, 2, 4)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    timed = {m["name"].removesuffix(".self_ms") for m in spec["per_layer"]
             if m["name"].endswith(".self_ms")}
    layers = got["median_ms"]
    assert layers and set(layers) <= timed, set(layers) - timed
    assert all(ms >= 0.0 for ms in layers.values())
