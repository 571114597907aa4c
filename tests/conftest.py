import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedk0
from gradedk0.cli import main

SRC = Path(gradedk0.__file__).resolve().parent.parent


def run_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_python(args):
    """Run a fresh interpreter with the package importable; returns the
    completed process with text stdout and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.fixture
def cli():
    return run_cli
