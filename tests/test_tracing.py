"""The benchmark's tracer must still see every stage of the package.

`perfbench/tracing.py` wraps module attributes by name, from outside the
package, so a refactor that moves a call off a wrapped name silently
zeroes a per-layer metric. This test installs the tracer over the package
in a subprocess, so that no wrapper outlives it, runs each CLI workload
for both pipelines, and checks that every stage span fired.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import perfprior

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

STAGES = {
    "_core.fit_ols", "_core.loo_grid", "_core.loo_line", "benchgen.simulate",
    "cli", "dataset.aggregate", "dataset.load", "dataset.subset",
    "evaluation.metrics", "evaluation.study", "modeler.family_build",
    "modeler.fit", "modeler.search", "noise.inject", "pipelines.run",
    "pmnf.design_matrix", "priors.derive", "priors.effort_search",
    "priors.time_fit",
}

# argv[1]: tracing.py, argv[2]: a scratch directory
SCRIPT = """
import importlib.util, json, sys
from pathlib import Path
from perfprior import benchgen, cli

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
work = Path(sys.argv[2])
spec_path, exp_path = str(work / "spec.json"), str(work / "exp.json")
benchgen.save_spec(benchgen.random_spec(1, 2, 2), spec_path)
assert cli.main(["simulate", "--spec", spec_path, "--out", exp_path]) == 0
tracer = tracing.Tracer(grid_points=25)
tracer.install()
for pipeline in ("classic", "swc"):
    for argv in (
        ["model", "--experiment", exp_path],
        ["study-noise", "--spec", spec_path, "--trials", "1"],
        ["study-reps", "--spec", spec_path, "--reps", "3"],
    ):
        argv += ["--pipeline", pipeline, "--out", str(work / "out")]
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(tracer.calls)))
"""


def test_tracer_sees_every_stage(tmp_path):
    env = os.environ.copy()
    paths = [str(Path(perfprior.__file__).resolve().parent.parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(TRACING), str(tmp_path)],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    fired = set(json.loads(proc.stdout.decode().splitlines()[-1]))
    assert STAGES - fired == set()
