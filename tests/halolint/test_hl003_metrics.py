"""Teeth tests for HL003 — metrics discipline."""

from __future__ import annotations

from halolint_helpers import findings_for

MOD = "src/repro/core/instrumented.py"

DOC = """\
# Observability

| metric | help |
| --- | --- |
| `halotis_runs_total` | documented |
"""


def test_computed_metric_name_fires(lint_tree):
    result = lint_tree({MOD: """
        def publish(registry, suffix):
            registry.counter("halotis_" + suffix, "help", ("engine",))
    """})
    (finding,) = findings_for(result, "HL003")
    assert "string literal" in finding.message


def test_missing_project_prefix_fires(lint_tree):
    result = lint_tree({MOD: """
        def publish(registry):
            registry.counter("runs_total", "help", ())
    """})
    (finding,) = findings_for(result, "HL003")
    assert "halotis_" in finding.message


def test_undocumented_name_fires_when_doc_present(lint_tree):
    result = lint_tree({
        "docs/observability.md": DOC,
        MOD: """
            def publish(registry):
                registry.counter("halotis_runs_total", "help", ())
                registry.counter("halotis_rogue_total", "help", ())
        """,
    })
    (finding,) = findings_for(result, "HL003")
    assert "halotis_rogue_total" in finding.message
    assert "not documented" in finding.message


def test_doc_check_skipped_when_doc_absent(lint_tree):
    result = lint_tree({MOD: """
        def publish(registry):
            registry.counter("halotis_rogue_total", "help", ())
    """})
    assert findings_for(result, "HL003") == []


def test_non_literal_label_tuple_fires(lint_tree):
    result = lint_tree({MOD: """
        def publish(registry, labels):
            registry.gauge("halotis_depth", "help", labels)
    """})
    (finding,) = findings_for(result, "HL003")
    assert "label names" in finding.message


def test_dynamic_label_value_fires(lint_tree):
    result = lint_tree({MOD: """
        def record(counter, name):
            counter.inc(kind=str(name))
            counter.inc(kind=f"op-{name}")
    """})
    assert len(findings_for(result, "HL003")) == 2


def test_bounded_label_values_are_fine(lint_tree):
    result = lint_tree({MOD: """
        def record(counter, batch, ok):
            counter.inc(engine=batch.engine_kind)
            counter.inc(status="ok" if ok else "error")
            counter.inc(kind=ok or "internal")
    """})
    assert findings_for(result, "HL003") == []


def test_local_literal_dict_expansion_is_fine(lint_tree):
    result = lint_tree({MOD: """
        def record(counter, batch, mode):
            labels = {"engine": batch.engine_kind, "mode": mode}
            counter.inc(**labels)
    """})
    assert findings_for(result, "HL003") == []


def test_opaque_star_expansion_fires(lint_tree):
    result = lint_tree({MOD: """
        def record(counter, labels):
            counter.inc(**labels)
    """})
    (finding,) = findings_for(result, "HL003")
    assert "auditable" in finding.message


def test_dict_with_unbounded_value_fires_through_expansion(lint_tree):
    result = lint_tree({MOD: """
        def record(counter, name):
            labels = {"kind": "x-%s" % name}
            counter.inc(**labels)
    """})
    (finding,) = findings_for(result, "HL003")


def test_disabling_the_rule_loses_the_teeth(lint_tree):
    bad = {MOD: """
        def record(counter, name):
            counter.inc(kind=str(name))
    """}
    assert findings_for(lint_tree(bad), "HL003")
    assert not findings_for(lint_tree(bad, disabled=["HL003"]), "HL003")
