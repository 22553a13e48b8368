"""Root pytest configuration.

Registers :mod:`repro.testing` as a pytest plugin so its ``determinism``
fixture (bit-identical-replay assertion, backed by
``repro.analysis.sanitizer``) is available to every test and benchmark.
Also adds ``--obs-dir``, the one way to tell instrumented benches where
to write their repro.obs artifacts (``benchmarks/conftest.py``'s
``obs_dir`` fixture reads it). Must live in the rootdir conftest: pytest
rejects ``pytest_plugins`` in nested conftests (and ``pytest_addoption``
must also live here).
"""

pytest_plugins = ("repro.testing",)


def pytest_addoption(parser):
    parser.addoption(
        "--obs-dir",
        default=None,
        help="directory where benches write repro.obs JSONL artifacts; "
        "unset disables export",
    )
