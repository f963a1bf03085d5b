"""Teeth tests for HL002 — lock discipline on guarded attributes."""

from __future__ import annotations

from halolint_helpers import findings_for

MOD = "src/repro/server/table.py"

GUARDED_CLASS = """
    import threading


    class Table:
        def __init__(self):
            self._entries = {}  # halolint: guarded-by(_lock)
            self._lock = threading.Lock()
"""


def test_unguarded_access_fires(lint_tree):
    result = lint_tree({MOD: GUARDED_CLASS + """
        def size(self):
            return len(self._entries)
    """})
    (finding,) = findings_for(result, "HL002")
    assert finding.file == MOD
    assert "_entries" in finding.message
    assert "_lock" in finding.message


def test_with_block_access_is_fine(lint_tree):
    result = lint_tree({MOD: GUARDED_CLASS + """
        def size(self):
            with self._lock:
                return len(self._entries)
    """})
    assert findings_for(result, "HL002") == []


def test_locked_annotation_grants_the_lock(lint_tree):
    result = lint_tree({MOD: GUARDED_CLASS + """
        # halolint: locked(_lock)
        def size_locked(self):
            return len(self._entries)
    """})
    assert findings_for(result, "HL002") == []


def test_init_is_exempt(lint_tree):
    # The declaration itself — and any other __init__ access — is
    # construction-time, before the object is shared.
    result = lint_tree({MOD: GUARDED_CLASS})
    assert findings_for(result, "HL002") == []


def test_nested_def_does_not_inherit_the_lock(lint_tree):
    # The closure runs later, on whatever thread calls it.
    result = lint_tree({MOD: GUARDED_CLASS + """
        def deferred(self):
            with self._lock:
                def peek():
                    return self._entries
                return peek
    """})
    (finding,) = findings_for(result, "HL002")
    assert "_entries" in finding.message


def test_wrong_lock_does_not_count(lint_tree):
    result = lint_tree({MOD: GUARDED_CLASS + """
        def size(self):
            with self._other:
                return len(self._entries)
    """})
    assert len(findings_for(result, "HL002")) == 1


def test_dangling_guarded_by_annotation_fires(lint_tree):
    result = lint_tree({MOD: """
        class Table:
            def __init__(self):
                size = 0  # halolint: guarded-by(_lock)
    """})
    (finding,) = findings_for(result, "HL002")
    assert "not attached" in finding.message


def test_disabling_the_rule_loses_the_teeth(lint_tree):
    bad = {MOD: GUARDED_CLASS + """
        def size(self):
            return len(self._entries)
    """}
    assert findings_for(lint_tree(bad), "HL002")
    assert not findings_for(lint_tree(bad, disabled=["HL002"]), "HL002")
