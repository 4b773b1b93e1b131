"""Tests for the simlint static analyzer (repro.analysis).

Each fixture under ``tests/analysis_fixtures/`` carries exactly one known
violation (its line tagged ``# VIOLATION``) plus a pragma-suppressed copy
of the same pattern, so these tests pin rule id, location *and* the
suppression syntax for every rule.
"""

import json
import os

import pytest

from repro.analysis import Baseline, Linter, all_rules, lint_paths
from repro.analysis.cli import main
from repro.analysis.findings import Severity

FIXTURES = os.path.join(os.path.dirname(__file__), "analysis_fixtures")

#: rule id -> fixture path (relative to the fixture root)
FIXTURE_FILES = {
    "SIM001": "sim/sim001_unseeded_random.py",
    "SIM002": "sim/sim002_wall_clock.py",
    "SIM003": "sim/sim003_float_cycles.py",
    "SIM004": "sim/sim004_unsorted_iteration.py",
    "SIM005": "sim/sim005_mutable_default.py",
    "SIM006": "sim/sim006_lambda_capture.py",
    "SIM007": "dram/sim007_inline_timing.py",
    "SIM008": "sim/sim008_swallowed_exception.py",
    "SIM015": "sim/sim015_unguarded_check.py",
}


def fixture_path(rule_id):
    return os.path.join(FIXTURES, *FIXTURE_FILES[rule_id].split("/"))


def violation_line(path):
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if "# VIOLATION" in line:
                return lineno
    raise AssertionError(f"{path} has no # VIOLATION marker")


#: whole-program (simflow) rule ids; fixtures live under
#: analysis_fixtures/flow/ and are exercised by test_simflow.py
FLOW_RULES = ("SIM009", "SIM010", "SIM011", "SIM012", "SIM013", "SIM014")


class TestRuleSet:
    def test_all_rules_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(list(FIXTURE_FILES) + list(FLOW_RULES))

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.title
            assert rule.fix_hint
            assert rule.severity in (Severity.ERROR, Severity.WARNING)


class TestFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_FILES))
    def test_fixture_reports_rule_and_line(self, rule_id):
        path = fixture_path(rule_id)
        findings = lint_paths([path])
        assert [f.rule for f in findings] == [rule_id], \
            f"expected exactly one {rule_id} finding, got {findings}"
        finding = findings[0]
        assert finding.line == violation_line(path)
        assert finding.fix_hint
        assert finding.snippet

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_FILES))
    def test_pragma_suppresses_rule(self, rule_id):
        # Every fixture contains a suppressed duplicate of its violation;
        # stripping the pragmas must surface at least one extra finding.
        path = fixture_path(rule_id)
        with open(path) as handle:
            source = handle.read()
        stripped = source.replace(f"# simlint: disable={rule_id}", "")
        linter = Linter(select=[rule_id])
        without_pragma = linter.lint_source(stripped, path=path)
        with_pragma = linter.lint_source(source, path=path)
        assert len(without_pragma) > len(with_pragma)

    def test_blanket_pragma_suppresses_all_rules(self):
        source = "import random\nx = random.Random()  # simlint: disable\n"
        findings = Linter().lint_source(source, path="sim/example.py")
        assert findings == []


class TestScoping:
    def test_sim001_only_fires_in_simulator_dirs(self):
        source = "import random\nvalue = random.random()\n"
        scoped = Linter(select=["SIM001"])
        assert scoped.lint_source(source, path="src/repro/sim/x.py")
        assert not scoped.lint_source(source,
                                      path="src/repro/experiments/x.py")

    def test_sim002_exempts_experiments_and_benchmarks(self):
        source = "import time\nstarted = time.time()\n"
        scoped = Linter(select=["SIM002"])
        assert scoped.lint_source(source, path="src/repro/metrics/x.py")
        assert not scoped.lint_source(source,
                                      path="src/repro/experiments/x.py")
        assert not scoped.lint_source(source, path="benchmarks/bench_x.py")

    def test_sim007_exempts_the_timing_module(self):
        source = "def f(t_ns):\n    return t_ns * 3\n"
        scoped = Linter(select=["SIM007"])
        assert scoped.lint_source(source, path="src/repro/dram/other.py")
        assert not scoped.lint_source(source,
                                      path="src/repro/dram/timing.py")


class TestRuleDetails:
    def test_sim001_seeded_random_is_clean(self):
        source = "import random\nrng = random.Random(42)\n"
        assert not Linter(select=["SIM001"]).lint_source(
            source, path="sim/x.py")

    def test_sim003_flags_keyword_argument(self):
        source = "def f(e, cb):\n    e.schedule(when=float(3), callback=cb)\n"
        findings = Linter(select=["SIM003"]).lint_source(source,
                                                         path="sim/x.py")
        assert [f.rule for f in findings] == ["SIM003"]

    def test_sim003_allows_floor_division(self):
        source = "def f(e, cb, p):\n    e.schedule_in(p // 2, cb)\n"
        assert not Linter(select=["SIM003"]).lint_source(source,
                                                         path="sim/x.py")

    def test_sim004_ignores_order_insensitive_loops(self):
        source = ("def f(self, d):\n"
                  "    total = 0\n"
                  "    for v in d.values():\n"
                  "        total += v\n"
                  "    return total\n")
        assert not Linter(select=["SIM004"]).lint_source(source,
                                                         path="sim/x.py")

    def test_sim006_default_bound_lambda_is_clean(self):
        source = ("def f(engine, items, done):\n"
                  "    for item in items:\n"
                  "        engine.schedule(1, lambda i=item: done(i))\n")
        assert not Linter(select=["SIM006"]).lint_source(source,
                                                         path="sim/x.py")

    def test_sim006_flags_while_loop_rebinding(self):
        source = ("def f(engine, queue, done):\n"
                  "    while queue:\n"
                  "        item = queue.pop()\n"
                  "        engine.schedule(1, lambda: done(item))\n")
        findings = Linter(select=["SIM006"]).lint_source(source,
                                                         path="sim/x.py")
        assert [f.rule for f in findings] == ["SIM006"]

    def test_sim008_keeps_handlers_that_do_work(self):
        source = ("def f(c, log):\n"
                  "    try:\n"
                  "        c.tick()\n"
                  "    except Exception:\n"
                  "        log.append('tick failed')\n")
        assert not Linter(select=["SIM008"]).lint_source(source,
                                                         path="sim/x.py")

    def test_sim015_helper_with_one_unguarded_caller_is_flagged(self):
        source = ("def tick(s):\n"
                  "    if contracts.enabled:\n"
                  "        _check(s)\n"
                  "    _check(s)\n"
                  "def _check(s):\n"
                  "    contracts.check(s.ok, 'broken')\n")
        findings = Linter(select=["SIM015"]).lint_source(source,
                                                         path="core/x.py")
        assert [(f.rule, f.line) for f in findings] == [("SIM015", 6)]

    def test_sim015_accepts_a_compound_guard_only_in_its_body(self):
        source = ("def tick(s):\n"
                  "    if contracts.enabled and s.live:\n"
                  "        contracts.check(s.ok, 'broken')\n"
                  "    else:\n"
                  "        contracts.check(s.ok, 'broken')\n")
        findings = Linter(select=["SIM015"]).lint_source(source,
                                                         path="dram/x.py")
        assert [(f.rule, f.line) for f in findings] == [("SIM015", 5)]
        assert not Linter(select=["SIM015"]).lint_source(
            source, path="validate/x.py")

    def test_syntax_error_becomes_sim000(self):
        findings = Linter().lint_source("def broken(:\n", path="sim/x.py")
        assert [f.rule for f in findings] == ["SIM000"]
        assert findings[0].severity is Severity.ERROR


class TestRepoIsClean:
    def test_src_has_no_findings(self):
        """The shipped baseline is empty: src/ must lint clean."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        findings = lint_paths([os.path.join(root, "src")])
        assert findings == [], "\n".join(f.render_text() for f in findings)


class TestBaseline:
    def test_round_trip_and_split(self, tmp_path):
        path = fixture_path("SIM005")
        findings = lint_paths([path])
        baseline = Baseline.from_findings(findings)
        target = tmp_path / "baseline.json"
        baseline.save(str(target))
        loaded = Baseline.load(str(target))
        new, old = loaded.split(findings)
        assert new == [] and len(old) == len(findings)

    def test_line_drift_does_not_unbaseline(self):
        source = "def f(x, log=[]):\n    return log\n"
        linter = Linter(select=["SIM005"])
        baseline = Baseline.from_findings(
            linter.lint_source(source, path="x.py"))
        shifted = "# a new comment line\n" + source
        new, old = baseline.split(linter.lint_source(shifted, path="x.py"))
        assert new == [] and len(old) == 1

    def test_new_findings_are_not_masked(self):
        source = "def f(x, log=[]):\n    return log\n"
        linter = Linter(select=["SIM005"])
        baseline = Baseline.from_findings(
            linter.lint_source(source, path="x.py"))
        grown = source + "def g(x, seen={}):\n    return seen\n"
        new, old = baseline.split(linter.lint_source(grown, path="x.py"))
        assert len(new) == 1 and len(old) == 1


class TestCli:
    def run(self, *argv):
        import io
        out, err = io.StringIO(), io.StringIO()
        code = main(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_clean_tree_exits_zero(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code, out, _ = self.run(os.path.join(root, "src"), "--no-baseline")
        assert code == 0
        assert "clean" in out

    def test_fixtures_exit_nonzero_with_location(self):
        path = fixture_path("SIM001")
        code, out, _ = self.run(path, "--no-baseline")
        assert code == 1
        assert "SIM001" in out
        assert f":{violation_line(path)}:" in out

    def test_json_format(self):
        code, out, _ = self.run(fixture_path("SIM003"), "--no-baseline",
                                "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["counts"]["error"] == 1
        assert payload["new"][0]["rule"] == "SIM003"

    def test_baseline_workflow(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        path = fixture_path("SIM008")
        code, _, _ = self.run(path, "--baseline", str(baseline),
                              "--write-baseline")
        assert code == 0
        code, out, _ = self.run(path, "--baseline", str(baseline))
        assert code == 0
        assert "baselined" in out

    def test_unknown_rule_is_usage_error(self):
        code, _, err = self.run("src", "--select", "SIM999")
        assert code == 2
        assert "SIM999" in err

    def test_missing_path_is_usage_error(self):
        code, _, err = self.run("no/such/dir")
        assert code == 2

    def test_list_rules(self):
        code, out, _ = self.run("--list-rules")
        assert code == 0
        for rule_id in FIXTURE_FILES:
            assert rule_id in out
