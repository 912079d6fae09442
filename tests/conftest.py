"""pytest hooks shared by the suite."""

import tickphys


def pytest_report_header(config):
    """Name the package under test: ``pyproject.toml`` puts its own ``src``
    ahead of ``PYTHONPATH``, so a copy of ``src`` is tested only from a
    checkout that holds it beside ``pyproject.toml`` and ``tests/``."""
    return f"tickphys: {tickphys.__file__}"
