"""SIGKILL mid-sweep, then rerun: the result store is the journal.

A sweep killed outright (its whole process group, job processes
included) keeps whatever artifacts it had published and nothing else.
Re-running the same specs against the same store must serve the
finished jobs from the cache, compute the rest, leave no temp file
behind, and end with artifacts byte-identical to a sweep that was never
killed.  A sweep killed alone, without its process group, must not
leave its job processes running, whichever start method made them.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import JobSpec, ResultStore, run_sweep
from repro.runner.store import QUARANTINE_DIR

ROOT = Path(__file__).resolve().parents[2]
HELPERS = "tests.runner.helpers"

CHILD = """\
import json
import multiprocessing
import sys

from repro.runner import JobSpec, ResultStore, run_sweep

if __name__ == "__main__":
    store_dir, docs = sys.argv[1], json.loads(sys.argv[2])
    if len(sys.argv) > 3:
        multiprocessing.set_start_method(sys.argv[3])
    specs = [
        JobSpec(d["experiment"], d["params"], entrypoint=d["entrypoint"])
        for d in docs
    ]
    run_sweep(specs, ResultStore(store_dir), workers=2)
"""


def _start_sweep(
    tmp_path: Path, store_dir: Path, specs, start_method: str | None = None
):
    """Run ``specs`` in a child sweep process leading its own process
    group, so a test can kill it with or without its job processes.
    ``start_method`` is the multiprocessing start method the sweep
    uses (default: the platform's)."""
    script = tmp_path / "child.py"
    script.write_text(CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")] if p
    )
    method = [start_method] if start_method else []
    return subprocess.Popen(
        [sys.executable, str(script), str(store_dir),
         json.dumps([s.describe() for s in specs]), *method],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _running(pid: int) -> bool:
    """Whether ``pid`` names a process that has not exited.  A zombie
    has exited: only its parent's wait is missing."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _specs():
    """Three fast jobs around one that sleeps long enough to be cut off."""
    specs = [
        JobSpec("T-OK", {"x": x}, entrypoint=f"{HELPERS}:ok_job")
        for x in range(3)
    ]
    specs.insert(
        1,
        JobSpec("T-SLEEPY", {"duration": 2.0},
                entrypoint=f"{HELPERS}:sleepy_job"),
    )
    return specs


def _artifact_paths(root: Path) -> list:
    """Every published artifact under ``root``: not an in-flight
    ``.tmp-*`` file, not a quarantined one."""
    return [
        p for p in sorted(root.glob("*/*.json"))
        if p.parent.name != QUARANTINE_DIR and not p.name.startswith(".")
    ]


def _published_keys(root: Path) -> set:
    """Keys of the jobs whose artifact the store holds (artifacts are
    published by atomic rename, so a visible one is complete)."""
    return {p.stem for p in _artifact_paths(root)}


def _artifacts(root: Path) -> dict:
    """Relative path -> bytes of every real artifact under ``root``."""
    return {p.relative_to(root): p.read_bytes() for p in _artifact_paths(root)}


def test_sigkilled_sweep_resumes_from_the_store(tmp_path):
    specs = _specs()
    store_dir = tmp_path / "store"
    child = _start_sweep(tmp_path, store_dir, specs)
    try:
        deadline = time.monotonic() + 60
        while not _published_keys(store_dir):
            if child.poll() is not None:
                pytest.fail("child sweep exited before any job finished")
            if time.monotonic() > deadline:
                pytest.fail("child sweep never finished a job")
            time.sleep(0.02)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    finished = _published_keys(store_dir)
    sleeper = specs[1].cache_key
    assert finished and sleeper not in finished

    outcomes = run_sweep(specs, ResultStore(store_dir), workers=2)
    hits = {o.key for o in outcomes if o.cached}
    computed = {o.key for o in outcomes if o.status == "ok"}
    assert finished <= hits
    assert sleeper in computed
    assert hits | computed == {s.cache_key for s in specs}
    assert not hits & computed
    assert all(o.ok for o in outcomes)
    assert not list(store_dir.rglob(".tmp-*"))

    reference = tmp_path / "reference"
    run_sweep(specs, ResultStore(reference), workers=2)
    assert _artifacts(store_dir) == _artifacts(reference)
    assert len(_artifacts(reference)) == len(specs)


@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
def test_killed_sweep_leaves_no_job_process(tmp_path, start_method):
    # Two jobs run at once: under fork the younger one holds a copy of
    # the elder's parent-sentinel write end, so their exits cascade.
    pid_files = [tmp_path / f"job{i}.pid" for i in range(2)]
    specs = [
        JobSpec("T-PIDSLEEPY", {"pid_file": str(pid_file)},
                entrypoint=f"{HELPERS}:pid_sleepy_job")
        for pid_file in pid_files
    ]
    child = _start_sweep(tmp_path, tmp_path / "store", specs, start_method)
    try:
        deadline = time.monotonic() + 60
        while not all(p.exists() for p in pid_files):
            if child.poll() is not None:
                pytest.fail("child sweep exited before its jobs started")
            if time.monotonic() > deadline:
                pytest.fail("child sweep never started both jobs")
            time.sleep(0.02)
        job_pids = [int(p.read_text()) for p in pid_files]
        os.kill(child.pid, signal.SIGKILL)  # the sweep alone, not its group
        child.wait(timeout=30)
        deadline = time.monotonic() + 5
        while any(map(_running, job_pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, job_pids)), (
            "job process outlived its sweep"
        )
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if child.poll() is None:
            child.wait(timeout=30)
