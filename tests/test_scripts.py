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


def phase_times(*args):
    """The JSON records ``scripts/phase_times.py`` prints for ``args``."""
    src = str(Path(hamdecomp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_times.py"), *args],
        env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_phase_times_audit_runs_the_pipeline_with_the_audit():
    (record,) = phase_times("--size", "60:0.6", "--seeds", "1", "--eta", "0.3", "--audit")
    assert record["audit"] is True and record["audit_failures"] == 0
    assert set(record["wall_s"]) == {"sample", "extract", "peel", "convert", "verify"}
    result = run(Params(n=60, p0=0.6, eta=0.3, seed=1), audit=True)
    cycles = json.dumps(result.hamilton_cycles, separators=(",", ":")).encode()
    assert record["cycles"] == result.achieved_cycles > 0
    assert record["cycles_sha256"] == hashlib.sha256(cycles).hexdigest()


def test_phase_times_verify_times_the_judge_on_the_runs_files():
    ran, failed = phase_times("--size", "60:0.6", "--size", "12:0.0", "--seeds", "1",
                              "--eta", "0.3", "--verify")
    assert ran["audit"] is False and ran["cycles"] > 0
    assert ran["verify_ok"] is True and ran["verify_result_s"] >= 0
    # the judge's own fresh process: an interpreter with numpy loaded
    assert 10 < ran["verify_peak_rss_mb"] < 2 * ran["peak_rss_mb"]
    # a run that fails in extraction still writes both files, and no cycle
    # verifies against them
    assert failed["phase_failed"] == "extract" and failed["cycles"] == 0
    assert failed["verify_ok"] is True
