"""Teeth tests for HL005 — the public exception contract."""

from __future__ import annotations

from halolint_helpers import findings_for

MOD = "src/repro/core/pathmath.py"


def test_public_builtin_raise_fires(lint_tree):
    result = lint_tree({MOD: """
        def delay(value):
            if value < 0:
                raise ValueError("negative delay")
    """})
    (finding,) = findings_for(result, "HL005")
    assert "ValueError" in finding.message
    assert finding.line == 4


def test_uncalled_builtin_raise_fires(lint_tree):
    result = lint_tree({MOD: """
        def delay(value):
            raise RuntimeError
    """})
    (finding,) = findings_for(result, "HL005")
    assert "RuntimeError" in finding.message


def test_private_helper_is_exempt(lint_tree):
    result = lint_tree({MOD: """
        def _parse(value):
            raise ValueError("wrapped at the boundary")

        class Loader:
            def _load(self):
                raise OSError("ditto")
    """})
    assert findings_for(result, "HL005") == []


def test_private_class_exempts_its_methods(lint_tree):
    result = lint_tree({MOD: """
        class _Kernel:
            def step(self):
                raise RuntimeError("internal")
    """})
    assert findings_for(result, "HL005") == []


def test_dunder_methods_are_language_protocol(lint_tree):
    result = lint_tree({MOD: """
        class Table:
            def __getitem__(self, key):
                raise KeyError(key)

            def __init__(self, size):
                if size < 0:
                    raise ValueError("size must be >= 0")
    """})
    assert findings_for(result, "HL005") == []


def test_repro_errors_and_reraise_are_fine(lint_tree):
    result = lint_tree({MOD: """
        from repro.errors import SimulationError


        def delay(value):
            if value < 0:
                raise SimulationError("negative delay")
            try:
                return 1.0 / value
            except ZeroDivisionError as error:
                raise


        def todo():
            raise NotImplementedError
    """})
    assert findings_for(result, "HL005") == []


def test_module_level_raise_counts_as_public(lint_tree):
    result = lint_tree({MOD: """
        import sys

        if sys.maxsize < 2**32:
            raise RuntimeError("needs a 64-bit interpreter")
    """})
    (finding,) = findings_for(result, "HL005")
    assert "RuntimeError" in finding.message


def test_disabling_the_rule_loses_the_teeth(lint_tree):
    bad = {MOD: """
        def delay(value):
            raise ValueError("negative delay")
    """}
    assert findings_for(lint_tree(bad), "HL005")
    assert not findings_for(lint_tree(bad, disabled=["HL005"]), "HL005")
