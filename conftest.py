"""Root pytest configuration.

Registers :mod:`repro.testing` as a pytest plugin so its ``determinism``
fixture (bit-identical-replay assertion, backed by
``repro.analysis.sanitizer``) is available to every test and benchmark.
Must live in the rootdir conftest: pytest rejects ``pytest_plugins`` in
nested conftests.
"""

pytest_plugins = ("repro.testing",)
