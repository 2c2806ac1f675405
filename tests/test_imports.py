"""The package imports numpy and nothing else from outside the standard
library: a heavier dependency would raise every run's start-up time and
resident memory before any graph is sampled."""
import json
import os
import subprocess
import sys
from pathlib import Path

import hamdecomp

PROBE = """
import json, sys
before = set(sys.modules)
import hamdecomp.cli, hamdecomp.harness
# multiprocessing registers the main module again as __mp_main__
loaded = {name.split(".")[0] for name in set(sys.modules) - before} - {"__mp_main__"}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"hamdecomp"})))
"""


def test_numpy_is_the_only_third_party_import():
    src = str(Path(hamdecomp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    third_party = json.loads(out)
    assert "scipy" not in third_party and "networkx" not in third_party
    assert third_party == ["numpy"]
