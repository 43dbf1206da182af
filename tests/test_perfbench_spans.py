"""The benchmark tracer (perfbench/spans.py) still finds every symbol it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() looks every wrapped name up on the library, so a renamed symbol
# raises here; the short simulation checks that the drift counter fires.
PROGRAM = """
import json
import fdcurves as fd
import spans

tracer = spans.Tracer()
spans.install(tracer)
model = fd.builtin_models()["affine1-exp-identity"]
spec = fd.SdeSpec(d=1, drift=fd.rn_drift(model, [[1.0]], fd.XGrid.chebyshev()),
                  sigma=[[1.0]], y0=[0.5])
tracer.active = True
fd.simulate(spec, 0.1, 0.2, 3, seed=1)
tracer.active = False
print(json.dumps(tracer.summary()))
"""


def test_benchmark_tracer_installs_and_counts_drift_rows():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["sim.simulate.calls"] == 1
    assert summary["sim.drift.rows"] == 3 * 2
    assert summary.get("sim.lattice.solves", 0) == 0
