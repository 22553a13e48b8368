"""Every CLI module is ``python -m repro.cli.<mod>``-runnable.

The console scripts in pyproject.toml only exist after an install; the
``__main__`` guards make each tool usable straight from a checkout. This
sweep runs each module as ``python -m`` with no arguments and asserts it
behaves like a CLI (prints usage or a report, never a traceback) rather
than importing silently and exiting 0 with no output.
"""

import os
import subprocess
import sys

import pytest

CLI_MODULES = sorted(
    f"repro.cli.{name[:-3]}"
    for name in os.listdir(
        os.path.join(os.path.dirname(__file__), "..", "..", "src",
                     "repro", "cli"))
    if name.startswith("mm_") and name.endswith(".py")
)


def _run_module(module, *args):
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_sweep_finds_the_whole_toolkit():
    # Guard the discovery glob itself: a rename that empties this list
    # would silently pass every parametrized case.
    assert len(CLI_MODULES) >= 12
    assert "repro.cli.mm_webreplay" in CLI_MODULES
    assert "repro.cli.mm_load" in CLI_MODULES


@pytest.mark.parametrize("module", CLI_MODULES)
def test_module_is_python_m_runnable(module):
    # Bare invocation: either does its default thing (mm-lint lints src
    # silently) or prints usage with a small error code — never crashes.
    proc = _run_module(module)
    output = proc.stdout + proc.stderr
    assert "Traceback" not in output, output
    assert proc.returncode in (0, 1, 2), output


@pytest.mark.parametrize("module", CLI_MODULES)
def test_module_rejects_nonsense_like_a_cli(module):
    # The guard-presence proof: a module missing its __main__ guard
    # would import silently and exit 0 with no output; a real CLI
    # complains about an argument it cannot possibly accept.
    proc = _run_module(module, "--definitely-not-a-real-flag")
    output = proc.stdout + proc.stderr
    assert "Traceback" not in output, output
    assert output.strip(), f"{module} swallowed a bogus flag silently"
    assert proc.returncode == 2, output
