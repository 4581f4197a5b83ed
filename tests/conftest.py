import json
import signal

import pytest

HANG_LIMIT_S = 30


@pytest.fixture
def hang_guard():
    """Raise TimeoutError in a test still running after HANG_LIMIT_S, so an
    endless loop fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {HANG_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HANG_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def finish_run():
    """A function that marks a hand-built run directory as a finished run:
    it writes the manifest.json a run command writes on success, listing
    every file then in the directory and the manifest itself."""
    def finish(run_dir):
        files = [path.relative_to(run_dir).as_posix()
                 for path in run_dir.rglob("*") if path.is_file()]
        (run_dir / "manifest.json").write_text(json.dumps({
            "config_hash": "", "wall_clock_sec": 0.0,
            "artifacts": sorted([*files, "manifest.json"]), "failure": None}))
    return finish
