"""Start-up cost: importing phykey, running a session, analyzing it, the
`simulate`, `analyze --report`, `replay` and `randomness` commands, and
reading the guess-count PMF on both sides of the FFT limit load no module
of `scipy` or of the pydantic family (`pydantic`, `pydantic_core`,
`annotated_types`, `typing_inspection`)."""
import os
import subprocess
import sys
from pathlib import Path

import phykey

CHILD = """
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import phykey, phykey.cli, phykey.pipeline
from phykey.analysis import guess_count_pmf
from phykey.config import config_from_mapping


FORBIDDEN = ["scipy", "pydantic", "pydantic_core", "annotated_types", "typing_inspection"]


def forbidden():
    return sorted(m for m in sys.modules if m.split(".")[0] in FORBIDDEN)


assert forbidden() == [], ("on import", forbidden())
cfg = config_from_mapping({"seed": 3, "rounds": 5000, "attack": {"enabled": True, "d": 3.0}})
report, _, _ = phykey.pipeline.run_experiment(cfg)
assert report.n > 0, "the attack ran"
phykey.pipeline.analyze_config(cfg)
assert forbidden() == [], ("after a session and the closed form", forbidden())
q_minus, q_plus = report.thresholds_alice
counts = (report.ell, report.n, report.n0)
assert report.n <= 20_000
result = phykey.pipeline.analyze_config(cfg, q_minus=q_minus, q_plus=q_plus, counts=counts)
assert forbidden() == [], ("after analyze_config with counts", forbidden())
with tempfile.TemporaryDirectory() as tmp:
    cfg_path = Path(tmp, "c.yaml")
    cfg_path.write_text(json.dumps({"seed": 3, "rounds": 5000, "attack": {"enabled": True}}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert phykey.cli.main(["simulate", "--config", str(cfg_path), "--out-dir", tmp]) == 0
        assert phykey.cli.main(["analyze", "--config", str(cfg_path),
                                "--report", str(Path(tmp, "report.json"))]) == 0
    assert '"pmf"' not in stdout.getvalue() and '"n0"' in stdout.getvalue()
    with contextlib.redirect_stdout(io.StringIO()):
        assert phykey.cli.main(["replay", str(Path(tmp, "trace.csv")), "--config", str(cfg_path),
                                "--out-dir", str(Path(tmp, "replay"))]) == 0
        assert phykey.cli.main(["randomness", str(Path(tmp, "alice.bits"))]) == 0
assert forbidden() == [], ("after the simulate, analyze, replay and randomness CLI", forbidden())
assert result.pmf is not None
assert forbidden() == [], ("after reading .pmf", forbidden())
guess_count_pmf(4096, 1000, 0.5, 0.3)
assert forbidden() == [], ("after a direct PMF", forbidden())
guess_count_pmf(4097, 1000, 0.5, 0.3)
assert forbidden() == [], ("after an FFT PMF", forbidden())
"""


def test_no_scipy_or_pydantic_module_loads_on_any_path():
    # the child imports the phykey this process imported, also when pytest's
    # `pythonpath` setting put it on sys.path and PYTHONPATH is unset
    src = str(Path(phykey.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
