"""Run the suite from a plain checkout: pyproject.toml puts src/ on sys.path
for the tests themselves, and this puts it on PYTHONPATH for the tests that
start `python -m metacommute` in a subprocess.

The deadline fixture bounds a block that, when broken, would never end."""
import os
import signal
from contextlib import contextmanager

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (SRC, os.environ.get("PYTHONPATH")) if path
)


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that raises TimeoutError in
    its block once seconds have passed."""
    return _deadline
