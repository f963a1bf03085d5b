"""Helpers the halolint teeth tests import by name.

They live here, not in ``conftest.py``: a test module that imports from
``conftest`` gets whichever conftest pytest loaded first, which is
``benchmarks/conftest.py`` when one run collects both directories.
"""

from __future__ import annotations

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(result, rule_id):
    """The fresh findings one rule produced, in file/line order."""
    return [f for f in result.report.findings if f.rule == rule_id]
