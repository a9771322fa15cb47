"""The reach hook (``benchmarks/reach.py``) counts every process it can.

A process under the hook starts a thread, a fresh child interpreter, and a
forked child that SIGKILLs itself once a periodic flush has had time to run.
Each calls one function of a throwaway package; a fourth function is never
called.  Only that one may come back unreached: a thread the profiler
missed, a child that did not inherit the hook through ``PYTHONPATH``, or a
killed child whose set never reached disk would each show up as a second.
"""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py"

MODULE = '''
def in_thread():
    return 1


def in_child():
    return 2


def before_kill():
    return 3


def never():
    return 4
'''

DRIVER = '''
import os, signal, subprocess, sys, threading, time

import demo

thread = threading.Thread(target=demo.in_thread)
thread.start()
thread.join()
subprocess.run([sys.executable, "-c", "import demo; demo.in_child()"], check=True)
pid = os.fork()
if pid == 0:
    demo.before_kill()
    time.sleep({wait})
    os.kill(os.getpid(), signal.SIGKILL)
_, status = os.waitpid(pid, 0)
assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, status
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reach():
    return _load("reach_under_test", REACH)


def test_only_the_uncalled_function_is_unreached(tmp_path):
    reach = _reach()
    src, out = tmp_path / "src", tmp_path / "sets"
    src.mkdir()
    out.mkdir()
    (src / "demo.py").write_text(MODULE, encoding="utf-8")
    env = reach.hook_environment(src, out)
    env["PYTHONPATH"] += f":{src}"
    driver = textwrap.dedent(DRIVER).format(wait=5 * reach.FLUSH_S)
    subprocess.run([sys.executable, "-c", driver], env=env, check=True, timeout=60)

    missed = reach.unreached(reach.functions(src), reach.collect(out))
    assert [f.qualname for f in missed] == ["never"]


# ------------------------------------------------------------------ analysis

SHAPES = """
def tag(fn):
    fn.tagged = True
    return fn


def make_adder(n):
    def add(x):
        return x + n

    return add


class Outer:
    @property
    def value(self):
        return 1

    @staticmethod
    @tag
    def twice(x):
        return 2 * x

    class Inner:
        def method(self):
            return 0


async def coroutine():
    return 1
"""


@pytest.fixture(scope="module")
def reach():
    return _reach()


@pytest.fixture
def shapes(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "shapes.py").write_text(SHAPES, encoding="utf-8")
    return src


def _row(function):
    return function.qualname, function.first, function.last


class TestFunctions:
    def test_qualname_and_first_line_are_those_of_the_code_object(self, reach, shapes):
        """What the hook records (first line, name) must find its ``def``:
        decorated functions start at their first decorator, nested ones
        carry ``<locals>``, methods of nested classes both class names."""
        module = _load("shapes_under_test", shapes / "pkg" / "shapes.py")
        objects = [
            module.tag,
            module.make_adder,
            module.make_adder(1),
            module.Outer.value.fget,
            module.Outer.twice,
            module.Outer.Inner.method,
            module.coroutine,
        ]
        expected = {(obj.__qualname__, obj.__code__.co_firstlineno) for obj in objects}
        assert {(f.qualname, f.first) for f in reach.functions(shapes)} == expected

    def test_module_is_its_posix_path_under_the_source_root(self, reach, shapes):
        assert {f.module for f in reach.functions(shapes)} == {"pkg/shapes.py"}

    def test_lines_run_from_the_first_decorator_to_the_last_body_line(self, reach, shapes):
        twice = next(f for f in reach.functions(shapes) if f.qualname == "Outer.twice")
        lines = SHAPES.splitlines()
        assert lines[twice.first - 1].strip() == "@staticmethod"
        assert lines[twice.last - 1].strip() == "return 2 * x"
        assert twice.lines == 4

    def test_a_nested_function_knows_the_function_around_it(self, reach, shapes):
        by_name = {f.qualname: f for f in reach.functions(shapes)}
        assert by_name["make_adder.<locals>.add"].parent is by_name["make_adder"]
        assert by_name["Outer.Inner.method"].parent is None


class TestUnreached:
    def _found(self, every, *qualnames):
        return {(f.module, f.first, f.qualname.rsplit(".", 1)[-1]) for f in every if f.qualname in qualnames}

    def test_nested_functions_fold_into_an_unreached_function(self, reach, shapes):
        every = reach.functions(shapes)
        found = self._found(every, "tag", "Outer.value", "Outer.twice", "Outer.Inner.method", "coroutine")
        assert [f.qualname for f in reach.unreached(every, found)] == ["make_adder"]

    def test_an_unreached_function_inside_a_reached_one_is_listed(self, reach, shapes):
        every = reach.functions(shapes)
        found = self._found(every, "tag", "make_adder", "Outer.value", "Outer.twice", "Outer.Inner.method")
        missed = [f.qualname for f in reach.unreached(every, found)]
        assert missed == ["make_adder.<locals>.add", "coroutine"]

    def test_a_call_recorded_on_another_line_reaches_nothing(self, reach, shapes):
        every = reach.functions(shapes)
        tag = next(f for f in every if f.qualname == "tag")
        missed = reach.unreached(every, {(tag.module, tag.first + 1, "tag"), ("other.py", tag.first, "tag")})
        assert "tag" in [f.qualname for f in missed]

    def test_everything_called_leaves_nothing_unreached(self, reach, shapes):
        every = reach.functions(shapes)
        assert reach.unreached(every, self._found(every, *(f.qualname for f in every))) == []


class TestTriage:
    @staticmethod
    def _function(reach, qualname, module="pkg/mod.py"):
        return reach.Function(module, qualname, 1, 2, None)

    def test_the_longest_matching_key_wins(self, reach, monkeypatch):
        monkeypatch.setitem(reach.TRIAGE, "pkg/mod.py", "module row")
        monkeypatch.setitem(reach.TRIAGE, "pkg/mod.py:Shape", "class row")
        monkeypatch.setitem(reach.TRIAGE, "pkg/mod.py:Shape.area", "method row")
        assert reach.triage(self._function(reach, "Shape.area")) == "method row"
        assert reach.triage(self._function(reach, "Shape.perimeter")) == "class row"
        assert reach.triage(self._function(reach, "helper")) == "module row"

    def test_a_nested_function_takes_the_class_of_the_function_around_it(self, reach, monkeypatch):
        monkeypatch.setitem(reach.TRIAGE, "pkg/mod.py:Shape.area", "method row")
        assert reach.triage(self._function(reach, "Shape.area.<locals>.inner")) == "method row"

    def test_a_function_without_a_row_is_untriaged(self, reach):
        assert reach.triage(self._function(reach, "anything", module="pkg/nowhere.py")) == "untriaged"

    def test_a_new_method_of_a_public_class_is_untriaged(self, reach):
        """Public API is keyed per method: a stranded method of a served class
        must not pass under its class's name."""
        for module, qualname in [
            ("repro/serving/service.py", "ScoringService.stranded"),
            ("repro/serving/sharding.py", "ShardedScoringService.stranded"),
            ("repro/serving/service.py", "StreamDetection.stranded"),
            ("repro/core/model.py", "AOVLIS.stranded"),
            ("repro/core/detector.py", "DetectionResult.stranded"),
        ]:
            assert reach.triage(self._function(reach, qualname, module=module)) == "untriaged", qualname

    def test_every_row_names_a_module_or_function_of_the_package(self, reach):
        """A row left behind by a deleted or renamed function would triage nothing."""
        every = reach.functions(REACH.parent.parent / "src")
        modules = {f.module for f in every}
        prefixes = {f"{f.module}:{'.'.join(f.qualname.split('.')[:end])}" for f in every
                    for end in range(1, f.qualname.count(".") + 2)}
        stale = [key for key in reach.TRIAGE if key not in modules and key not in prefixes]
        assert stale == []


# ---------------------------------------------------------------------- hook


def _frame(function):
    return types.SimpleNamespace(f_code=function.__code__)


@pytest.fixture
def recorder(reach, shapes, tmp_path):
    out = tmp_path / "sets"
    out.mkdir()
    recorder = reach.Recorder(str(shapes), str(out))
    recorder.start()
    yield recorder
    recorder._stop.set()


class TestRecorder:
    def test_records_calls_under_the_source_root_only(self, reach, shapes, recorder):
        module = _load("shapes_under_test", shapes / "pkg" / "shapes.py")
        recorder.profile(_frame(module.tag), "return", None)
        assert recorder.found == set()
        recorder.profile(_frame(module.tag), "call", None)
        recorder.profile(_frame(module.tag), "call", None)
        recorder.profile(_frame(textwrap.dedent), "call", None)
        first = module.tag.__code__.co_firstlineno
        assert recorder.found == {("pkg/shapes.py", first, "tag")}

    def test_flush_rewrites_the_file_only_when_the_set_grew(self, reach, shapes, recorder):
        module = _load("shapes_under_test", shapes / "pkg" / "shapes.py")
        recorder.profile(_frame(module.tag), "call", None)
        recorder.flush()
        path = Path(recorder.path)
        assert path.read_text(encoding="utf-8") == f"pkg/shapes.py\t{module.tag.__code__.co_firstlineno}\ttag\n"
        path.unlink()
        recorder.flush()
        assert not path.exists()
        recorder.profile(_frame(module.make_adder), "call", None)
        recorder.flush()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert list(path.parent.glob("*.tmp")) == []

    def test_a_forked_child_writes_the_whole_set_to_a_file_of_its_own(self, reach, shapes, recorder):
        module = _load("shapes_under_test", shapes / "pkg" / "shapes.py")
        recorder.profile(_frame(module.tag), "call", None)
        recorder.flush()
        parent_path = recorder.path
        recorder._stop.set()
        recorder._after_fork()
        assert recorder.path != parent_path
        recorder.flush()
        assert Path(recorder.path).read_text(encoding="utf-8") == Path(parent_path).read_text(encoding="utf-8")

    def test_collect_unions_the_set_files_and_skips_staged_ones(self, reach, tmp_path):
        (tmp_path / "1-a.txt").write_text("m.py\t3\tf\nm.py\t9\tg\n", encoding="utf-8")
        (tmp_path / "2-b.txt").write_text("m.py\t9\tg\nn.py\t1\th\n", encoding="utf-8")
        (tmp_path / "3-c.txt.tmp").write_text("m.py\t5\thalf-written\n", encoding="utf-8")
        assert reach.collect(tmp_path) == {("m.py", 3, "f"), ("m.py", 9, "g"), ("n.py", 1, "h")}

    def test_hook_environment_puts_the_hook_first_on_an_inherited_path(self, reach, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", "/elsewhere")
        env = reach.hook_environment(tmp_path / "src", tmp_path / "sets")
        hook_dir = tmp_path / "sets" / "hook"
        assert env["PYTHONPATH"].split(":") == [str(hook_dir), "/elsewhere"]
        assert "hook.install(" in (hook_dir / "sitecustomize.py").read_text(encoding="utf-8")
        monkeypatch.delenv("PYTHONPATH")
        assert reach.hook_environment(tmp_path / "src", tmp_path / "sets")["PYTHONPATH"] == str(hook_dir)

    def test_only_a_failed_test_run_may_exit_1(self, reach, tmp_path, capfd):
        exit_1 = [sys.executable, "-c", "raise SystemExit(1)"]
        reach._run(exit_1, tmp_path, {}, failed_tests_ok=True)
        with pytest.raises(subprocess.CalledProcessError):
            reach._run(exit_1, tmp_path, {})
        with pytest.raises(subprocess.CalledProcessError):
            reach._run([sys.executable, "-c", "raise SystemExit(2)"], tmp_path, {}, failed_tests_ok=True)


# -------------------------------------------------------------------- report

ROW = re.compile(r"^  +(\d+)  (\S+)  \[(.+)\]$")


def _rows(text):
    """``(module, lines, qualname, class)`` of each report row."""
    module, rows = None, []
    for line in text.splitlines():
        if line and not line.startswith(("#", " ")):
            module = line.split()[0]
        match = ROW.match(line)
        if match:
            lines, qualname, name = match.groups()
            rows.append((module, int(lines), qualname, name))
    return rows


class TestReport:
    def test_header_totals_are_the_sums_of_the_rows(self, reach, shapes, monkeypatch):
        monkeypatch.setitem(reach.TRIAGE, "pkg/shapes.py:make_adder", reach.REBALANCE)
        monkeypatch.setitem(reach.TRIAGE, "pkg/shapes.py:Outer", reach.API)
        every = reach.functions(shapes)
        found = {(f.module, f.first, f.qualname.rsplit(".", 1)[-1]) for f in every if f.qualname == "tag"}
        text = reach.report(shapes, found)
        rows = _rows(text)
        by_name = {f.qualname: f for f in every}
        assert [(r[2], r[3]) for r in rows] == [
            ("Outer.Inner.method", "public API"),
            ("Outer.twice", "public API"),
            ("Outer.value", "public API"),
            ("coroutine", "untriaged"),
            ("make_adder", "item 10(b)"),
        ]
        assert all(lines == by_name[qualname].lines for _, lines, qualname, _ in rows)
        total = sum(r[1] for r in rows)
        outside = total - sum(r[1] for r in rows if r[3].startswith("item 10"))
        assert f"# 5 unreached functions (outermost), {total} lines." in text
        assert f"# outside item 10: {outside} lines." in text
        assert f"pkg/shapes.py  ({total} lines)" in text

    def test_rows_do_not_move_when_code_above_them_does(self, reach, shapes):
        """Only reach, not an edit elsewhere in the module, changes the report."""
        every = reach.functions(shapes)
        found = {(f.module, f.first, f.qualname.rsplit(".", 1)[-1]) for f in every if f.qualname == "tag"}
        text = reach.report(shapes, found)
        module = shapes / "pkg" / "shapes.py"
        module.write_text("\n\n\n" + module.read_text(encoding="utf-8"), encoding="utf-8")
        moved = {(m, first + 3, name) for m, first, name in found}
        assert reach.report(shapes, moved) == text

    def test_the_committed_report_matches_the_package(self, reach):
        """Every row of ``benchmarks/results/reach.txt`` names a function the
        package still has, with its line count, in the class ``TRIAGE`` gives
        it, and its header adds up; none is untriaged."""
        text = (REACH.parent / "results" / "reach.txt").read_text(encoding="utf-8")
        rows = _rows(text)
        assert rows
        every = {(f.module, f.qualname): f for f in reach.functions(REACH.parent.parent / "src")}
        for module, lines, qualname, name in rows:
            assert (module, qualname) in every, (module, qualname)
            assert name == reach.triage(every[module, qualname]) != "untriaged"
            assert lines == every[module, qualname].lines, (module, qualname)
        total = sum(r[1] for r in rows)
        outside = total - sum(r[1] for r in rows if r[3].startswith("item 10"))
        assert f"unreached functions (outermost), {total} lines." in text
        assert f"# outside item 10: {outside} lines." in text
