"""Tests for simflow, the whole-program analysis (repro.analysis.flow).

Fixture files under ``tests/analysis_fixtures/flow/`` each seed exactly
one interprocedural violation (line tagged ``# VIOLATION``) plus a
pragma-suppressed copy, mirroring the per-file simlint fixtures.  The
fixtures are analyzed under a synthetic ``src/repro/sim/`` path so the
path-based exemptions (``tests/`` is outside any checkpoint graph) do
not hide the seeded defects.
"""

import json
import os

import pytest

from repro.analysis.baseline import Baseline, pass_for_rule
from repro.analysis.cli import main
from repro.analysis.flow import (CallGraph, Program, analyze_paths,
                                 analyze_sources)
from repro.analysis.flow.cycles import CycleTaintAnalysis
from repro.analysis.flow.effects import WALLCLOCK, EffectAnalysis
from repro.analysis.flow.pickles import (PickleReachability,
                                         jobspec_violations)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "analysis_fixtures", "flow")

#: rule id -> fixture file under analysis_fixtures/flow/
FLOW_FIXTURES = {
    "SIM009": "sim009_wallclock_reachable.py",
    "SIM010": "sim010_rng_reachable.py",
    "SIM011": "sim011_ambient_reachable.py",
    "SIM012": "sim012_cycle_taint.py",
    "SIM013": "sim013_checkpoint_slots.py",
    "SIM014": "sim014_jobspec_import.py",
}


def fixture_source(rule_id):
    with open(os.path.join(FIXTURES, FLOW_FIXTURES[rule_id])) as handle:
        return handle.read()


def fixture_findings(rule_id, source=None):
    source = fixture_source(rule_id) if source is None else source
    path = f"src/repro/sim/{FLOW_FIXTURES[rule_id]}"
    return analyze_sources({path: source}, select={rule_id})


def violation_line(source):
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "# VIOLATION" in line:
            return lineno
    raise AssertionError("fixture has no # VIOLATION marker")


def build(sources):
    """(program, graph) for an inline {path: source} program."""
    program = Program.from_sources(sources)
    return program, CallGraph(program)


class TestFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FLOW_FIXTURES))
    def test_fixture_reports_rule_and_line(self, rule_id):
        source = fixture_source(rule_id)
        findings = fixture_findings(rule_id, source)
        assert [f.rule for f in findings] == [rule_id], \
            f"expected exactly one {rule_id}, got {findings}"
        finding = findings[0]
        assert finding.line == violation_line(source)
        assert finding.fix_hint
        assert finding.snippet

    @pytest.mark.parametrize("rule_id", sorted(FLOW_FIXTURES))
    def test_pragma_suppresses_rule(self, rule_id):
        source = fixture_source(rule_id)
        stripped = source.replace(f"# simlint: disable={rule_id}", "")
        with_pragma = fixture_findings(rule_id, source)
        without_pragma = fixture_findings(rule_id, stripped)
        assert len(without_pragma) > len(with_pragma)

    @pytest.mark.parametrize("rule_id", sorted(FLOW_FIXTURES))
    def test_witness_chain_in_message(self, rule_id):
        # Every interprocedural finding must explain *why* the line is
        # blamed: a chain, a source line, or the failing callable.
        finding = fixture_findings(rule_id)[0]
        assert ("->" in finding.message or "line" in finding.message
                or "lambda" in finding.message)


class TestCallGraph:
    def test_direct_call_edges_resolve(self):
        program, graph = build({
            "src/repro/sim/a.py": (
                "from .b import helper\n"
                "def entry():\n"
                "    return helper()\n"),
            "src/repro/sim/b.py": (
                "def helper():\n"
                "    return 1\n"),
        })
        callees = [s.callee.qualname
                   for s in graph.calls_from("repro.sim.a.entry")]
        assert callees == ["repro.sim.b.helper"]

    def test_bound_callback_resolution(self):
        program, graph = build({"src/repro/sim/c.py": (
            "class Engine:\n"
            "    def schedule(self, when, callback):\n"
            "        pass\n"
            "class Cache:\n"
            "    def __init__(self, engine: Engine):\n"
            "        self.engine = engine\n"
            "    def lookup(self):\n"
            "        pass\n"
            "    def start(self):\n"
            "        self.engine.schedule(4, self.lookup)\n")})
        scheduled = [cb.qualname
                     for cb, _site in graph.scheduled_callbacks()]
        assert scheduled == ["repro.sim.c.Cache.lookup"]

    def test_callable_instance_links_to_dunder_call(self):
        program, graph = build({"src/repro/sim/d.py": (
            "class Engine:\n"
            "    def schedule_in(self, delay, callback):\n"
            "        pass\n"
            "class Ticker:\n"
            "    def __call__(self):\n"
            "        pass\n"
            "def arm(engine: Engine):\n"
            "    engine.schedule_in(2, Ticker())\n")})
        scheduled = [cb.qualname
                     for cb, _site in graph.scheduled_callbacks()]
        assert scheduled == ["repro.sim.d.Ticker.__call__"]

    def test_attr_type_inference_resolves_method_calls(self):
        program, graph = build({"src/repro/sim/e.py": (
            "class Cache:\n"
            "    def lookup(self):\n"
            "        pass\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.llc = Cache()\n"
            "    def step(self):\n"
            "        self.llc.lookup()\n")})
        callees = {s.callee.qualname
                   for s in graph.calls_from("repro.sim.e.System.step")}
        assert "repro.sim.e.Cache.lookup" in callees


class TestEffectPropagation:
    def test_effect_propagates_to_run_root(self):
        program, graph = build({
            "src/repro/sim/system.py": (
                "from .helpers import tick\n"
                "class SimSystem:\n"
                "    def run(self, until):\n"
                "        return tick()\n"),
            "src/repro/sim/helpers.py": (
                "import time\n"
                "def tick():\n"
                "    return time.time()\n"),
        })
        effects = EffectAnalysis(program, graph)
        violations = effects.violations()
        assert len(violations) == 1
        site, chain = violations[0]
        assert site.kind == WALLCLOCK
        assert chain == ["repro.sim.system.SimSystem.run",
                         "repro.sim.helpers.tick"]

    def test_wallclock_module_is_a_cut_point(self):
        program, graph = build({
            "src/repro/sim/system.py": (
                "from ..runner import wallclock\n"
                "class SimSystem:\n"
                "    def run(self, until):\n"
                "        return wallclock.now()\n"),
            "src/repro/runner/wallclock.py": (
                "import time\n"
                "def now():\n"
                "    return time.time()\n"),
        })
        assert EffectAnalysis(program, graph).violations() == []

    def test_experiment_callbacks_are_not_roots(self):
        findings = analyze_sources({"src/repro/experiments/run.py": (
            "import random\n"
            "class Driver:\n"
            "    def cb(self):\n"
            "        return random.random()\n"
            "    def arm(self, engine):\n"
            "        engine.schedule(1, self.cb)\n")},
            select={"SIM010"})
        assert findings == []


class TestCycleTaint:
    def test_float_return_taints_through_two_helpers(self):
        program, graph = build({"src/repro/sim/f.py": (
            "def half(x):\n"
            "    return x / 2\n"
            "def wrapped(x):\n"
            "    return half(x)\n"
            "def arm(engine, x, cb):\n"
            "    engine.schedule(wrapped(x), cb)\n")})
        violations = CycleTaintAnalysis(program, graph).violations()
        assert len(violations) == 1
        assert violations[0][0].caller.qualname == "repro.sim.f.arm"

    def test_int_conversion_launders_taint(self):
        program, graph = build({"src/repro/sim/g.py": (
            "def half(x):\n"
            "    return x / 2\n"
            "def arm(engine, x, cb):\n"
            "    engine.schedule(int(half(x)), cb)\n"
            "def arm2(engine, x, cb):\n"
            "    engine.schedule(x // 2, cb)\n")})
        assert CycleTaintAnalysis(program, graph).violations() == []

    def test_param_tainted_by_call_site(self):
        program, graph = build({"src/repro/sim/h.py": (
            "def arm(engine, delay, cb):\n"
            "    engine.schedule(delay, cb)\n"
            "def caller(engine, cb):\n"
            "    arm(engine, 1.5, cb)\n")})
        violations = CycleTaintAnalysis(program, graph).violations()
        assert len(violations) == 1
        assert "1.5" in violations[0][1].description

    def test_dram_timing_returns_are_trusted(self):
        program, graph = build({
            "src/repro/sim/i.py": (
                "from ..dram import timing\n"
                "def arm(engine, ns, cb):\n"
                "    engine.schedule(timing.to_cycles(ns), cb)\n"),
            "src/repro/dram/timing.py": (
                "def to_cycles(ns):\n"
                "    return ns * 1.25\n"),
        })
        assert CycleTaintAnalysis(program, graph).violations() == []


class TestPickleSafety:
    def test_subclass_closure_is_reached(self):
        program, graph = build({"src/repro/sim/j.py": (
            "class SchedulerBase:\n"
            "    __slots__ = ()\n"
            "class BadPolicy(SchedulerBase):\n"
            "    def __init__(self):\n"
            "        self.queue = []\n"
            "class SimSystem:\n"
            "    __slots__ = ('sched',)\n"
            "    def __init__(self, sched: SchedulerBase):\n"
            "        self.sched = sched\n")})
        flagged = [f.cls.name
                   for f in PickleReachability(program, graph).violations()]
        assert flagged == ["BadPolicy"]

    def test_undeclared_slot_assignment_is_flagged(self):
        program, graph = build({"src/repro/sim/k.py": (
            "class SimSystem:\n"
            "    __slots__ = ('a',)\n"
            "    def __init__(self):\n"
            "        self.a = 0\n"
            "    def late(self):\n"
            "        self.b = 1\n")})
        violations = PickleReachability(program, graph).violations()
        assert [f.kind for f in violations] == ["inconsistent-slots"]
        assert "b" in violations[0].detail

    def test_scheduled_bound_method_roots_its_class(self):
        program, graph = build({"src/repro/sim/m.py": (
            "class Engine:\n"
            "    __slots__ = ()\n"
            "    def every(self, period, callback):\n"
            "        pass\n"
            "class Probe:\n"
            "    def __init__(self, engine: Engine):\n"
            "        self.engine = engine\n"
            "    def fire(self):\n"
            "        pass\n"
            "    def install(self):\n"
            "        self.engine.every(8, self.fire)\n")})
        violations = PickleReachability(program, graph).violations()
        assert [f.cls.name for f in violations] == ["Probe"]
        assert violations[0].chain[0].startswith("<event-queue>")

    def test_jobspec_string_path_checked_inside_program(self):
        program, graph = build({
            "src/repro/runner/jobs.py": (
                "def run_job(x):\n"
                "    return x\n"),
            "src/repro/sweeps.py": (
                "class JobSpec:\n"
                "    @staticmethod\n"
                "    def create(name, fn):\n"
                "        return (name, fn)\n"
                "def good():\n"
                "    return JobSpec.create('a', 'repro.runner.jobs:run_job')\n"
                "def bad():\n"
                "    return JobSpec.create('b', 'repro.runner.jobs:missing')\n"),
        })
        problems = jobspec_violations(program, graph)
        assert len(problems) == 1
        assert "missing" in problems[0].detail

    def test_self_attribute_str_field_is_not_a_bound_method(self):
        # A declared `fn: str` field carries a module:qualname path (the
        # fabric's Manifest.expand idiom); only an actual method on the
        # class is a violation.
        program, graph = build({"src/repro/sweeps.py": (
            "class JobSpec:\n"
            "    @staticmethod\n"
            "    def create(name, fn):\n"
            "        return (name, fn)\n"
            "class Template:\n"
            "    fn: str\n"
            "    def score(self, value):\n"
            "        return value\n"
            "    def from_path(self):\n"
            "        return JobSpec.create('a', self.fn)\n"
            "    def from_method(self):\n"
            "        return JobSpec.create('b', self.score)\n"),
        })
        problems = jobspec_violations(program, graph)
        assert len(problems) == 1
        assert "self.score is a bound method" in problems[0].detail


class TestBaselineV2:
    def test_pass_partition(self):
        assert pass_for_rule("SIM004") == "simlint"
        assert pass_for_rule("SIM013") == "simflow"
        assert pass_for_rule("SIM015") == "simlint"

    def test_save_partitions_and_load_merges(self, tmp_path):
        target = str(tmp_path / "baseline.json")
        Baseline(["src/a.py::SIM004::h1",
                  "src/b.py::SIM013::h2"]).save(target)
        with open(target) as handle:
            payload = json.load(handle)
        assert payload["version"] == 2
        assert payload["passes"]["simlint"] == ["src/a.py::SIM004::h1"]
        assert payload["passes"]["simflow"] == ["src/b.py::SIM013::h2"]
        assert len(Baseline.load(target)) == 2

    def test_version1_shim_still_loads(self, tmp_path):
        target = tmp_path / "v1.json"
        target.write_text(json.dumps(
            {"version": 1, "fingerprints": ["src/a.py::SIM004::h1"]}))
        assert len(Baseline.load(str(target))) == 1

    def test_unknown_version_is_rejected(self, tmp_path):
        target = tmp_path / "v9.json"
        target.write_text(json.dumps({"version": 9, "passes": {}}))
        with pytest.raises(ValueError):
            Baseline.load(str(target))


class TestCli:
    def run(self, *argv):
        import io
        out, err = io.StringIO(), io.StringIO()
        code = main(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_whole_program_flags_fixture(self):
        path = os.path.join(FIXTURES, FLOW_FIXTURES["SIM012"])
        code, out, _ = self.run(path, "--whole-program", "--no-baseline",
                                "--select", "SIM012")
        assert code == 1
        assert "SIM012" in out

    def test_whole_program_json_output(self):
        path = os.path.join(FIXTURES, FLOW_FIXTURES["SIM012"])
        code, out, _ = self.run(path, "--whole-program", "--no-baseline",
                                "--select", "SIM012", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["new"][0]["rule"] == "SIM012"

    def test_whole_program_baseline_workflow(self, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        path = os.path.join(FIXTURES, FLOW_FIXTURES["SIM012"])
        code, _, _ = self.run(path, "--whole-program", "--select", "SIM012",
                              "--baseline", baseline, "--write-baseline")
        assert code == 0
        code, out, _ = self.run(path, "--whole-program", "--select",
                                "SIM012", "--baseline", baseline)
        assert code == 0
        assert "baselined" in out

    def test_without_flag_flow_rules_stay_silent(self):
        path = os.path.join(FIXTURES, FLOW_FIXTURES["SIM012"])
        code, out, _ = self.run(path, "--no-baseline", "--select", "SIM012")
        assert code == 0
        assert "clean" in out


class TestRepoIsClean:
    def test_src_has_no_flow_findings(self):
        findings = analyze_paths([os.path.join(REPO, "src")])
        assert findings == [], "\n".join(f.render_text()
                                         for f in findings)
