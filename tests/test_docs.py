"""The documentation is part of the contract: links must resolve.

Runs the same checker the CI docs job runs (``tools/check_links.py``)
over the repo's entry-point documents and the ``docs/`` tree, plus a
few direct assertions that the documents the README promises exist and
cover the public knobs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT))

import check_links  # noqa: E402


def test_repo_markdown_links_resolve(capsys):
    assert check_links.run(check_links.DEFAULT_FILES) == 0, (
        capsys.readouterr().err
    )


def test_docs_exist_and_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    for doc in ("docs/architecture.md", "docs/performance.md",
                "docs/observability.md", "docs/static_analysis.md"):
        assert (REPO_ROOT / doc).exists(), doc
        assert doc in readme, "README does not link %s" % doc


def test_performance_doc_covers_every_tuning_knob():
    performance = (REPO_ROOT / "docs" / "performance.md").read_text()
    for knob in ("engine_kind", "batch_jobs", "batch_chunk_size",
                 "service_workers", "shm_transport", "--pool-workers",
                 "--shm", "max_task_retries"):
        assert knob in performance, "performance.md does not cover %s" % knob


def test_architecture_doc_names_every_layer():
    architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
    for anchor in ("Netlist.compile()", "ENGINE_KINDS", "simulate_batch",
                   "SimulationService", "fanout_offsets", "arc_rise",
                   "test_backend_parity", "test_service", "repro.obs"):
        assert anchor in architecture, (
            "architecture.md does not mention %s" % anchor
        )


def test_observability_doc_covers_the_monitoring_surface():
    """The metric catalogue must track the code: one row per published
    metric family, plus every scraping surface and CLI flag."""
    observability = (REPO_ROOT / "docs" / "observability.md").read_text()
    from repro.core import service as service_module
    from repro.server import app as app_module
    import inspect

    published = set()
    for module in (service_module, app_module):
        published.update(
            name
            for name in inspect.getsource(module).split('"')
            if name.startswith("halotis_")
        )
    for name in ("halotis_engine_runs_total", "halotis_engine_run_seconds",
                 "halotis_engine_phase_seconds",
                 "halotis_lockstep_waves_total",
                 "halotis_batch_vectors_total"):
        published.add(name)
    for name in sorted(published):
        assert name in observability, (
            "observability.md does not document %s" % name
        )
    for surface in ("--prometheus", "--json", "--log-level", "--log-json",
                    "collect_metrics", "result.metrics", "batch.metrics",
                    "parse_text", "(overflow)", "check_bench.py"):
        assert surface in observability, (
            "observability.md does not cover %s" % surface
        )


def test_static_analysis_doc_tracks_the_rule_registry():
    """docs/static_analysis.md is the halolint rule catalogue: every
    registered rule appears (id, name, invariant anchor), no retired
    rule id lingers, and the directive grammar is spelled out."""
    import re

    from tools.halolint.registry import RULES, load_rules

    load_rules()
    doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
    assert RULES, "no halolint rules registered"
    for rule in RULES.values():
        assert rule.id in doc, (
            "static_analysis.md does not document %s" % rule.id
        )
        assert rule.name in doc, (
            "static_analysis.md does not name %s (%s)"
            % (rule.id, rule.name)
        )
        assert ("### %s — %s" % (rule.id, rule.name)) in doc, (
            "static_analysis.md has no section for %s" % rule.id
        )
    documented = set(re.findall(r"\bHL\d{3}\b", doc))
    stale = documented - set(RULES) - {"HL000"}
    assert not stale, (
        "static_analysis.md mentions unregistered rule ids: %s"
        % sorted(stale)
    )
    for directive in ("halolint: allow(", "halolint: guarded-by(",
                      "halolint: locked("):
        assert directive in doc, (
            "static_analysis.md does not document the %r directive"
            % directive
        )
    assert "baseline.json" in doc


def test_checker_flags_broken_links(tmp_path, capsys):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "# Title\n\nSee [missing](no-such-file.md) and "
        "[bad anchor](#nowhere).\n"
    )
    assert check_links.run([str(bad)]) == 1
    err = capsys.readouterr().err
    assert "no-such-file.md" in err
    assert "nowhere" in err


def test_checker_flags_case_wrong_anchor(tmp_path, capsys):
    """GitHub anchors are lowercase; `#My-Heading` is broken rendered."""
    doc = tmp_path / "case.md"
    doc.write_text("# My Heading\n\nJump to [here](#My-Heading).\n")
    assert check_links.run([str(doc)]) == 1
    assert "My-Heading" in capsys.readouterr().err


def test_checker_accepts_anchors_and_skips_code_fences(tmp_path):
    good = tmp_path / "good.md"
    good.write_text(
        "# My Heading\n\nJump to [section](#my-heading).\n\n"
        "```\n[not a link](nonexistent.md)\n```\n"
    )
    assert check_links.run([str(good)]) == 0


def test_checker_missing_input_raises():
    with pytest.raises(FileNotFoundError):
        check_links.collect_files(["definitely-not-here.md"])
