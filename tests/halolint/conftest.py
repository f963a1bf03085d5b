"""Fixtures for the halolint teeth tests.

Every test seeds a throwaway source tree under ``tmp_path`` and runs
the real lint driver over it — the rules only ever see a
:class:`~tools.halolint.engine.Project`, so a three-line module is as
real to them as the repo.
"""

from __future__ import annotations

import sys
import textwrap

import pytest

from halolint_helpers import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT))

from tools.halolint import run  # noqa: E402
from tools.halolint.registry import load_rules  # noqa: E402

load_rules()


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` under a tmp root and lint it.

    Returns a function ``(files, **run_kwargs) -> LintResult``; file
    paths are relative to the tmp root (prefix with ``src/repro/`` to
    land in the default scan root), sources are dedented.
    """

    def _lint(files, **kwargs):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        return run(tmp_path, **kwargs)

    return _lint
