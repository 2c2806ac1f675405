"""Measurement scripts: a run through the script is the run the package gives."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hamdecomp
from hamdecomp.harness import run
from hamdecomp.sampler import Params

ROOT = Path(__file__).resolve().parent.parent


def test_phase_times_audit_runs_the_pipeline_with_the_audit():
    src = str(Path(hamdecomp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_times.py"),
         "--size", "60:0.6", "--seeds", "1", "--eta", "0.3", "--audit"],
        env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    (line,) = out.splitlines()
    record = json.loads(line)
    assert record["audit"] is True and record["audit_failures"] == 0
    assert set(record["wall_s"]) == {"sample", "extract", "peel", "convert", "verify"}
    result = run(Params(n=60, p0=0.6, eta=0.3, seed=1), audit=True)
    cycles = json.dumps(result.hamilton_cycles, separators=(",", ":")).encode()
    assert record["cycles"] == result.achieved_cycles > 0
    assert record["cycles_sha256"] == hashlib.sha256(cycles).hexdigest()
