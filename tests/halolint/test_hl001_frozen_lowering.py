"""Teeth tests for HL001 — frozen-lowering mutation detection."""

from __future__ import annotations

from halolint_helpers import findings_for

MOD = "src/repro/core/consumer.py"


def test_subscript_store_into_export_attribute_fires(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5
    """})
    (finding,) = findings_for(result, "HL001")
    assert finding.file == MOD
    assert finding.line == 3
    assert "arc_rise" in finding.message


def test_store_through_as_numpy_dict_key_fires(lint_tree):
    result = lint_tree({MOD: """
        def tweak(exports):
            exports["net_load"][0] = 1.0
    """})
    (finding,) = findings_for(result, "HL001")
    assert "net_load" in finding.message


def test_aliased_export_is_tracked_within_the_function(lint_tree):
    result = lint_tree({MOD: """
        def tweak(exports):
            arr = exports["gate_tables"]
            arr[0] = 7
    """})
    (finding,) = findings_for(result, "HL001")
    assert finding.line == 4
    assert "gate_tables" in finding.message


def test_writeable_flag_lift_fires(lint_tree):
    result = lint_tree({MOD: """
        def unfreeze(view):
            view.flags.writeable = True
    """})
    (finding,) = findings_for(result, "HL001")
    assert "writeable" in finding.message


def test_setattr_and_inplace_method_fire(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            setattr(compiled, "arc_fall", None)
            compiled.net_driver.fill(0)
    """})
    messages = [f.message for f in findings_for(result, "HL001")]
    assert len(messages) == 2
    assert any("setattr" in m for m in messages)
    assert any(".fill()" in m for m in messages)


def test_sanctioned_seams_do_not_fire(lint_tree):
    result = lint_tree({
        # The owning module may rebuild its arrays freely.
        "src/repro/core/compiled.py": """
            def rebuild(self):
                self.arc_rise[0] = 1.0
        """,
        # ... as may a refresh_numpy_cache() seam anywhere.
        MOD: """
            def refresh_numpy_cache(compiled):
                compiled.arc_rise[0] = 1.0
        """,
    })
    assert findings_for(result, "HL001") == []


def test_reading_exports_is_fine(lint_tree):
    result = lint_tree({MOD: """
        def total_load(exports):
            return float(exports["net_load"].sum())
    """})
    assert findings_for(result, "HL001") == []


def test_allow_directive_suppresses_one_line(lint_tree):
    result = lint_tree({MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5  # halolint: allow(HL001)
    """})
    assert findings_for(result, "HL001") == []


def test_disabling_the_rule_loses_the_teeth(lint_tree):
    bad = {MOD: """
        def tweak(compiled):
            compiled.arc_rise[3] = 0.5
    """}
    assert findings_for(lint_tree(bad), "HL001")
    assert not findings_for(lint_tree(bad, disabled=["HL001"]), "HL001")
