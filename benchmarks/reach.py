"""What the package reaches: every ``src/`` function an entry point calls.

    python benchmarks/reach.py            # ≈ 5 min; rewrites benchmarks/results/reach.txt

A ``sitecustomize`` hook (``sys.setprofile`` plus ``threading.setprofile``)
records the code object of every ``src/`` function that runs, in every
Python process started under it.  Each process rewrites its own set file
every ``FLUSH_S`` seconds and at exit, so a child that is SIGKILLed, or a
forked pool worker that never runs ``atexit``, is counted up to its last
flush.  The hook reaches the ledger's SUT children through ``PYTHONPATH``:
``run.py`` prepends ``src/`` to an inherited path.

The entry points run in a copy of the checkout (so the benchmarks' result
tables in this tree are not rewritten):

1. ``benchmarks/ledger/run.py --smoke --trace 0``: all four workloads;
2. every ``examples/*.py``;
3. the paper figure and table benchmarks plus ``test_scenario_gates.py``,
   under ``pytest -m slow --benchmark-disable`` (pytest-benchmark switches
   the profiler off while it times).

The throughput benchmarks are not entry points: they time modes, they do
not reproduce the paper.

``reach.txt`` lists, per module, every function none of them reaches (the
outermost one where nested functions are unreached too), with its line count
and its triage class from ``TRIAGE``.  Rows carry no line numbers and are
sorted by qualname, so only a change in what is reached, or an edit inside
an unreached function, changes the file.  The granularity is the function: a
reached function's dead branches are not counted.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
RESULT = ROOT / "benchmarks" / "results" / "reach.txt"
FLUSH_S = 0.2

PAPER_BENCHMARKS = (
    "test_fig8_epochs.py",
    "test_fig9a_omega.py",
    "test_fig9b_method_auroc.py",
    "test_fig10_roc_curves.py",
    "test_fig11a_filtering_power.py",
    "test_fig11b_optimisation_time.py",
    "test_fig11c_method_time.py",
    "test_fig12ab_thresholds.py",
    "test_fig12c_sparse_groups.py",
    "test_table1_loss_functions.py",
    "test_table2_adg_mfc.py",
    "test_table3_incremental_update.py",
    "test_table4_case_study.py",
    "test_scenario_gates.py",
)

# Why an unreached function stays in src/.  Keys are "module", "module:Class"
# or "module:qualname"; the longest key that matches wins.  Anything without a
# row is "untriaged", and reach.txt shows it.  An unreached function that is
# none of these is deleted, or moved to tests/ when a test compares against it.
# Whole modules and classes are keyed only for item 10's modes and the tape;
# public API is keyed per function, so a method that loses its last caller
# later shows as untriaged instead of hiding under its class's row.
# One of the modes ROADMAP item 10 measures on the ledger, or deletes ((c), the
# process pool, is deleted):
FLOAT32, REBALANCE, BACKGROUND = (f"item 10({mode})" for mode in "abd")
SEAM = "test seam"  # a kernel hook tests or the kernel throughput benchmark call
API = "public API"  # a method of a class tests/test_api_surface.py names, or of a type it takes or returns
ENGINE = "tape engine"  # the autograd tape: nn/tensor.py and the Module protocol (ROADMAP "Decided")
SAFETY = "safety"  # an input check, an error path, or a branch for input no entry point sends


def _api(owner: str, *methods: str) -> Dict[str, str]:
    """One public-API row per method of ``owner`` ("module:Class")."""
    return {f"{owner}.{method}": API for method in methods}


TRIAGE: Dict[str, str] = {
    # (a) float32 plumbing
    "repro/core/clstm.py:_float32_linear_weights": FLOAT32,
    # (b) the rebalancer with sharding's split/merge and session hand-over
    "repro/serving/rebalance.py": REBALANCE,
    "repro/serving/sharding.py:ShardedScoringService._spawn_shard_locked": REBALANCE,
    "repro/serving/sharding.py:ShardedScoringService._merge_shard_locked": REBALANCE,
    "repro/serving/sharding.py:ShardedScoringService.retired_shards": REBALANCE,
    "repro/serving/service.py:ScoringService.evict_sessions": REBALANCE,
    "repro/serving/service.py:ScoringService.adopt_sessions": REBALANCE,
    # (d) the background update plane and its pending-job checkpoint state
    "repro/serving/executor.py:BackgroundUpdatePlane": BACKGROUND,
    "repro/serving/sharding.py:_pending_job_state": BACKGROUND,
    "repro/serving/sharding.py:_pending_job_from_state": BACKGROUND,
    # test seams
    "repro/nn/fused.py:coupled_pair_forward_gated": SEAM,  # pins the sweep's -0.0 gate inputs to the frozen kernel
    "repro/nn/fused.py:clear_thread_workspaces": SEAM,  # a cold start: tests/test_workspace.py, test_kernel_throughput.py
    "repro/nn/fused.py:reset_workspace_stats": SEAM,  # zeroes the counters tests and test_kernel_throughput.py read
    # the tape
    "repro/nn/tensor.py": ENGINE,
    "repro/nn/functional.py:sigmoid": ENGINE,
    "repro/nn/functional.py:tanh": ENGINE,
    "repro/nn/module.py:Module.forward": ENGINE,
    "repro/nn/module.py:Module.zero_grad": ENGINE,
    "repro/nn/optim.py:Optimizer.step": ENGINE,
    "repro/nn/recurrent.py:LSTMCell.initial_state": ENGINE,
    "repro/nn/recurrent.py:LSTMCell.forward": ENGINE,
    "repro/nn/recurrent.py:CoupledLSTMCell.initial_state": ENGINE,
    "repro/nn/recurrent.py:CoupledLSTMCell.forward": ENGINE,
    "repro/core/clstm.py:CLSTMOutput.__init__": ENGINE,
    "repro/core/clstm.py:CLSTM.forward": ENGINE,
    # safety
    "repro/durability/checkpoints.py:DeltaSourceError.__init__": SAFETY,
    "repro/serving/microbatch.py:QueueFull.__init__": SAFETY,
    "repro/durability/wal.py:_float64_row": SAFETY,  # a row that is not C-contiguous float64
    "repro/durability/wal.py:WriteAheadLog._truncate": SAFETY,  # an append whose write or fsync fails
    "repro/durability/wal.py:WriteAheadLog.append_flush": SAFETY,  # an idle flush of a durable runtime behind HTTP
    "repro/serving/service.py:ScoringService.check_room": SAFETY,
    "repro/serving/service.py:validate_interaction_level": SAFETY,  # a tick whose levels are not all finite
    "repro/serving/service.py:Tick.select": SAFETY,  # a request over batch_max, or over several tenants
    "repro/server/handlers.py:RuntimeRequestHandler.handle_expect_100": SAFETY,
    # public API
    "repro/core/scoring.py:reia_score": API,
    "repro/core/training.py:CLSTMTrainer.evaluate_loss": API,
    "repro/nn/backprop.py:paired_feature_major": API,  # CLSTM.fused_training_step/fused_loss without an arena
    "repro/serving/executor.py:default_workers": API,  # ParallelExecutor(workers=None)
    "repro/streams/datasets.py:load_all_datasets": API,
    "repro/utils/config.py:ConfigBase.from_json": API,
    **_api("repro/core/base.py:StreamAnomalyDetector", "fit", "score_stream"),
    **_api("repro/core/detector.py:DetectionResult", "__len__"),
    **_api("repro/core/training.py:TrainingHistory", "train_curve", "validation_curve", "test_curve"),
    **_api("repro/durability/wal.py:WriteAheadLog", "position"),
    **_api("repro/evaluation/metrics.py:RocCurve", "area"),
    **_api("repro/features/i3d.py:SimulatedI3DExtractor", "extract"),
    **_api("repro/features/pipeline.py:FeaturePipeline", "action_dim", "interaction_dim"),
    **_api("repro/serving/executor.py:SerialExecutor", "__enter__", "__exit__"),
    **_api("repro/serving/executor.py:ParallelExecutor", "__enter__", "__exit__"),
    **_api("repro/serving/registry.py:ModelRegistry", "versions"),
    **_api("repro/serving/registry.py:RegistryHandle", "pinned", "version"),
    **_api("repro/serving/service.py:Tick", "__iter__"),  # Tick is what Runtime.ingest_many takes
    **_api("repro/serving/service.py:ScoringService", "reset_stats", "queue_depth"),
    **_api("repro/serving/service.py:StreamDetection", "__init__", "_values", "__eq__", "__hash__",
           "__repr__", "__reduce__", "__setattr__", "__delattr__"),
    **_api("repro/serving/sharding.py:ShardedScoringService", "num_shards", "shard_index", "shard_of",
           "reset_stats"),
    **_api("repro/streams/events.py:SocialVideoStream", "__iter__", "__len__"),
}


# --------------------------------------------------------------------------- hook


class Recorder:
    """Records the ``src/`` code objects this process runs, and writes them out."""

    def __init__(self, src_root: str, out_dir: str) -> None:
        self.prefix = os.path.join(os.path.abspath(src_root), "")
        self.out_dir = out_dir
        self.seen: Dict[int, object] = {}  # id -> code; holding it keeps the id unique
        self.found: Set[Tuple[str, int, str]] = set()
        self.written = 0
        self._rename()

    def _rename(self) -> None:
        self.path = os.path.join(self.out_dir, f"{os.getpid()}-{os.urandom(4).hex()}.txt")

    def profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if id(code) in self.seen:
            return
        self.seen[id(code)] = code
        if code.co_filename.startswith(self.prefix):
            name = os.path.relpath(code.co_filename, self.prefix).replace(os.sep, "/")
            self.found.add((name, code.co_firstlineno, code.co_name))

    def flush(self) -> None:
        # The flush thread and atexit may both get here; one writer at a time.
        with self._lock:
            found = frozenset(self.found)
            if len(found) == self.written:
                return
            text = "".join(f"{module}\t{line}\t{name}\n" for module, line, name in sorted(found))
            staged = self.path + ".tmp"
            with open(staged, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(staged, self.path)
            self.written = len(found)

    def _flush_forever(self) -> None:
        sys.setprofile(None)
        while not self._stop.wait(FLUSH_S):
            self.flush()

    def start(self) -> None:
        self._lock, self._stop = threading.Lock(), threading.Event()
        threading.Thread(target=self._flush_forever, name="reach-flush", daemon=True).start()

    def _after_fork(self) -> None:
        # Only the forking thread survives a fork: the child writes its own
        # file (the parent's set included) from a flush thread of its own,
        # under a lock of its own (the parent's may have been held).
        self._rename()
        self.written = 0
        self.start()


def install(src_root: str, out_dir: str) -> Recorder:
    """Start recording in this process (and its threads and forks)."""
    recorder = Recorder(src_root, out_dir)
    recorder.start()
    os.register_at_fork(after_in_child=recorder._after_fork)
    atexit.register(recorder.flush)
    threading.setprofile(recorder.profile)
    sys.setprofile(recorder.profile)
    return recorder


SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_reach_hook", {reach!r})
hook = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hook)
hook.install({src!r}, {out!r})
del importlib, spec, hook
"""


def hook_environment(src_root: Path, out_dir: Path) -> Dict[str, str]:
    """An environment whose Python processes record into ``out_dir``."""
    hook_dir = out_dir / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(reach=str(Path(__file__).resolve()), src=str(src_root), out=str(out_dir)),
        encoding="utf-8",
    )
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(hook_dir) + (os.pathsep + inherited if inherited else "")
    return env


def collect(out_dir: Path) -> Set[Tuple[str, int, str]]:
    """The union of every process's set file in ``out_dir``."""
    found = set()
    for path in out_dir.glob("*.txt"):
        for line in path.read_text(encoding="utf-8").splitlines():
            module, first, name = line.split("\t")
            found.add((module, int(first), name))
    return found


# ----------------------------------------------------------------------- analysis


class Function:
    def __init__(self, module: str, qualname: str, first: int, last: int, parent: Optional["Function"]):
        self.module, self.qualname, self.first, self.last, self.parent = module, qualname, first, last, parent

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(src_root: Path) -> List[Function]:
    """Every ``def`` under ``src_root``, with the qualname and first line its code object has."""
    found: List[Function] = []

    def visit(node: ast.AST, module: str, prefix: str, parent: Optional[Function]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                function = Function(module, prefix + child.name, first, child.end_lineno, parent)
                found.append(function)
                visit(child, module, f"{function.qualname}.<locals>.", function)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", parent)
            else:
                visit(child, module, prefix, parent)

    for path in sorted(src_root.rglob("*.py")):
        module = path.relative_to(src_root).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "", None)
    return found


def triage(function: Function) -> str:
    parts = function.qualname.split(".")
    for end in range(len(parts), 0, -1):
        key = f"{function.module}:{'.'.join(parts[:end])}"
        if key in TRIAGE:
            return TRIAGE[key]
    return TRIAGE.get(function.module, "untriaged")


def unreached(every: List[Function], found: Iterable[Tuple[str, int, str]]) -> List[Function]:
    """The outermost functions of ``every`` whose code object ``found`` lacks."""
    reached = set(found)
    missed = [f for f in every if (f.module, f.first, f.qualname.rsplit(".", 1)[-1]) not in reached]
    ids = set(map(id, missed))
    return [f for f in missed if f.parent is None or id(f.parent) not in ids]


def report(src_root: Path, found: Iterable[Tuple[str, int, str]]) -> str:
    every = functions(src_root)
    outermost = unreached(every, found)
    by_class: Dict[str, List[Function]] = {}
    modules: Dict[str, List[Function]] = {}
    for f in outermost:
        by_class.setdefault(triage(f), []).append(f)
        modules.setdefault(f.module, []).append(f)
    total = sum(f.lines for f in outermost)
    item_10 = sum(f.lines for name, rows in by_class.items() if name.startswith("item 10") for f in rows)
    lines = [
        "# src/ functions that no entry point reaches: the ledger smoke, every",
        "# example, the paper benchmarks.  Written by benchmarks/reach.py; do not edit.",
        f"# {len(outermost)} unreached functions (outermost), {total} lines.",
        f"# outside item 10: {total - item_10} lines.",
    ]
    for name in sorted(by_class):
        rows = by_class[name]
        lines.append(f"#   {name}: {len(rows)} functions, {sum(f.lines for f in rows)} lines")
    for module in sorted(modules):
        rows = modules[module]
        lines.append("")
        lines.append(f"{module}  ({sum(f.lines for f in rows)} lines)")
        for f in sorted(rows, key=lambda f: f.qualname):
            lines.append(f"  {f.lines:>4}  {f.qualname}  [{triage(f)}]")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------------ driver


def _copy_checkout(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".work", ".benchmarks", ".pytest_cache", ".hypothesis")
    for name in ("src", "benchmarks", "examples", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy2(ROOT / name, target / name)


def _run(argv: List[str], cwd: Path, env: Dict[str, str], failed_tests_ok: bool = False) -> None:
    print("+", " ".join(argv), flush=True)
    code = subprocess.run(argv, cwd=cwd, env=env, stdout=sys.stderr).returncode
    # Under the profile hook every Python call is slower, so a benchmark's
    # timing assert can fail (pytest exits 1) after all its work has run;
    # the benchmarks gate timing in their own unprofiled CI steps.  Any
    # other failure stops the run.
    if code and not (failed_tests_ok and code == 1):
        raise subprocess.CalledProcessError(code, argv)


def run_entry_points(tree: Path, out_dir: Path) -> None:
    env = hook_environment(tree / "src", out_dir)
    _run([sys.executable, "benchmarks/ledger/run.py", "--smoke", "--trace", "0"], tree, env)
    examples = dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep + str(tree / "src"))
    for example in sorted((tree / "examples").glob("*.py")):
        _run([sys.executable, str(example.relative_to(tree))], tree, examples)
    benchmarks = [f"benchmarks/{name}" for name in PAPER_BENCHMARKS]
    pytest = [sys.executable, "-m", "pytest", "-m", "slow", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    _run([*pytest, *benchmarks], tree, env, failed_tests_ok=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=RESULT)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        tree, out_dir = Path(scratch) / "tree", Path(scratch) / "sets"
        _copy_checkout(tree)
        out_dir.mkdir()
        run_entry_points(tree, out_dir)
        found = collect(out_dir)
    text = report(ROOT / "src", found)
    args.out.write_text(text, encoding="utf-8")
    print("".join(text.splitlines(keepends=True)[:12]), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
