"""Start-up cost: importing phykey and running a session loads neither
`scipy.stats` nor `scipy.signal`; only the guess-count PMF needs them."""
import os
import subprocess
import sys
from pathlib import Path

import phykey

CHILD = """
import sys

import phykey, phykey.cli, phykey.pipeline
from phykey.analysis import guess_count_pmf
from phykey.config import config_from_mapping


def loaded():
    return [m for m in ("scipy.stats", "scipy.signal") if m in sys.modules]


assert loaded() == [], ("on import", loaded())
cfg = config_from_mapping({"seed": 3, "rounds": 5000, "attack": {"enabled": True, "d": 3.0}})
report, _, _ = phykey.pipeline.run_experiment(cfg)
assert report.n > 0, "the attack ran"
phykey.pipeline.analyze_config(cfg)
assert loaded() == [], ("after a session and the closed form", loaded())
guess_count_pmf(4096, 1000, 0.5, 0.3)
assert loaded() == ["scipy.stats"], ("after a direct PMF", loaded())
guess_count_pmf(4097, 1000, 0.5, 0.3)
assert loaded() == ["scipy.stats", "scipy.signal"], ("after an FFT PMF", loaded())
"""


def test_scipy_stats_and_signal_load_only_for_the_pmf():
    # the child imports the phykey this process imported, also when pytest's
    # `pythonpath` setting put it on sys.path and PYTHONPATH is unset
    src = str(Path(phykey.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
