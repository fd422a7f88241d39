"""Run the suite from a plain checkout: pyproject.toml puts src/ on sys.path
for the tests themselves, and this puts it on PYTHONPATH for the tests that
start `python -m metacommute` in a subprocess."""
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (SRC, os.environ.get("PYTHONPATH")) if path
)
