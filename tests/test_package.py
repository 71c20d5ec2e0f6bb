"""Static checks over the package source, and the BLAS thread count its
import leaves."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "smfdfa"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the process's threads, and the BLAS variables it sees, after an import
THREADS_AFTER = ("import os, {module}; print(len(os.listdir('/proc/self/task')), "
                 "sorted((v, os.environ[v]) for v in " + repr(BLAS_VARS) + " if v in os.environ))")
# the threads after import, then whether pipeline_compare's report is the
# same run serially and in two forked shares, in that one process
FORKED_BESIDE_BLAS = """
import os
from unittest import mock
from smfdfa import fork, forecast, longmemory
threads = len(os.listdir('/proc/self/task'))
x = 100.0 + longmemory.arfima_generate(0.3, 1200, seed=5)
reports = []
for count in (1, 2):
    with mock.patch.object(fork, '_cpu_count', return_value=count):
        reports.append(repr(forecast.pipeline_compare(x, [600], p=3, hidden_units=4)))
print(threads, reports[0] == reports[1])
"""
# the threads after `{first}` is imported first, then the pids an unpatched
# fork_map of two items ran in, whether the first is the process's own, and
# whether a child is left
PIDS_AFTER = """
import {first}, os
from smfdfa import fork
threads = len(os.listdir('/proc/self/task'))
pids = fork.fork_map(lambda _: os.getpid(), range(2))
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(threads, len(set(pids)), pids[0] == os.getpid(), left)
"""
needs_proc_and_fork = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or not hasattr(os, "fork"),
    reason="counts threads in /proc/self/task; the pin matters only where members fork")


def unused_imports(path: Path) -> list[str]:
    """`file:line: name` for each name a module imports but never reads.

    `from __future__` imports are exempt; every other imported name must
    appear as a name somewhere in the module (annotations included).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so its names are read by callers
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    assert [hit for path in modules for hit in unused_imports(path)] == []


def test_no_class_defines_to_dict():
    # serialize.py alone maps result objects to JSON documents and CSV rows
    hits = [
        f"{path.name}:{node.lineno}: {cls.name}.to_dict"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "to_dict"
    ]
    assert hits == []


def test_only_serialize_defines_headers():
    # serialize.py alone owns every CSV shape, so no other module keeps a
    # column list of its own
    hits = [
        f"{path.name}:{node.lineno}: {target.id}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_HEADER")
    ]
    assert hits and all(hit.startswith("serialize.py:") for hit in hits), hits


def test_one_change_point_cost_kernel():
    # every search in changepoint.py sums once, at its top level, into
    # `s1, s2 = _prefix_sums(x)`, and only _segment_costs turns those sums
    # into a cost, so a second copy of the cost cannot come back
    tree = ast.parse((SRC / "changepoint.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    summing = [
        (fn.name, ast.unparse(stmt))
        for fn in functions
        for stmt in fn.body  # top-level statements only: never inside a loop
        if isinstance(stmt, ast.Assign) and "_prefix_sums" in ast.unparse(stmt.value)
    ]
    assert sorted(summing) == sorted(
        (name, "s1, s2 = _prefix_sums(x)")
        for name in ("detect_single", "_dp_unbounded", "_dp_capped")
    )
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_prefix_sums"
    ]
    assert len(calls) == len(summing)
    subtracting = {
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        for side in (node.left, node.right)
        if isinstance(side, ast.Subscript) and ast.unparse(side.value) in ("s1", "s2")
    }
    assert subtracting == {"_segment_costs"}


def test_one_exact_change_point_recursion():
    # both exact searches, uncapped and capped, score candidates only
    # through the pruned column kernel _dp_columns, so neither keeps a step
    # loop of its own, and no greedy search comes back beside them; the
    # single split scores through _best_split. The capped DP scores its
    # last layer's one cell itself: one call, outside any loop
    tree = ast.parse((SRC / "changepoint.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def callers(name: str) -> set[str]:
        return {
            fn.name
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name
        }

    assert callers("_segment_costs") == {"_best_split", "_dp_columns", "_dp_capped"}
    assert callers("_dp_columns") == {"_dp_capped", "_dp_unbounded"}
    assert callers("_best_split") == {"detect_single"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and ast.unparse(node.func).startswith("heapq.")]
    capped = next(fn for fn in functions if fn.name == "_dp_capped")
    in_loops = [node for loop in ast.walk(capped) if isinstance(loop, (ast.For, ast.While))
                for node in ast.walk(loop) if isinstance(node, ast.Call)
                and ast.unparse(node.func) == "_segment_costs"]
    calls = [node for node in ast.walk(capped) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "_segment_costs"]
    assert len(calls) == 1 and not in_loops


def test_one_power_sum_kernel():
    # the power means of the fluctuation surface and the partition sums of
    # fa_partition exponentiate only in _power_sums, over every q at once,
    # and both fit their exponents through the one row regression, so no
    # per-q copy of either comes back
    tree = ast.parse((SRC / "mfdfa.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def callers(name: str) -> list[str]:
        return sorted(
            fn.name
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name
        )

    assert callers("np.exp") == ["_power_sums"]
    assert callers("_power_sums") == ["_phi_column", "fa_partition"]
    assert callers("_ols_loglog") == ["fa_partition", "generalized_hurst"]


def test_one_nar_network():
    # forecast.py evaluates the network only in _forward and knows the
    # parameter layout only in _unpack and _n_params (no other product
    # involves p); reconstruct is the one place that passes lag rows to
    # predict_next and scores nothing itself, and the trainer's schedule
    # is module constants, not a *Config class
    tree = ast.parse((SRC / "forecast.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def callers(name: str) -> list[str]:
        return sorted(
            fn.name
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name
        )

    def names(node: ast.AST):
        # the names a product's arithmetic reads, not those passed to a call
        if isinstance(node, ast.Name):
            yield node.id
        elif not isinstance(node, ast.Call):
            for child in ast.iter_child_nodes(node):
                yield from names(child)

    multiplying_p = {
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and "p" in names(node)
    }
    assert callers("_sigmoid") == ["_forward"]
    predicting = sorted(
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "predict_next"
    )
    assert predicting == ["reconstruct"]
    assert "reconstruct" not in callers("mape")
    assert not [node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name.endswith("Config")]
    assert multiplying_p == {"_n_params", "_unpack"}


def test_one_cli_run_path():
    # main alone loads the config file and the input, writes through _emit
    # and prints the summary; handlers only compute, so a run that fails
    # writes nothing and a failed write prints nothing
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def callers(name: str) -> list[str]:
        return [
            fn.name
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name
        ]

    for name in ("_emit", "_load_config_file", "_load_series"):
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and ast.unparse(n.func) == name]
        assert len(calls) == 1 and callers(name) == ["main"], (name, callers(name))
    for name in ("write_json", "write_csv"):
        assert set(callers(name)) == {"_emit"}, name
    handlers = [fn.name for fn in functions if fn.name.startswith("cmd_")]
    assert len(handlers) == 6
    assert not [fn for fn in callers("print") if fn in handlers]


def test_all_lists_exactly_the_imported_names():
    # a name deleted from a module must leave both the import and __all__
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    assert len(exported) == len(set(exported))
    assert set(exported) == imported | {"__version__"}


def run_python(args: list[str], cwd: Path | None = None, **blas_vars: str) -> str:
    """stdout of a Python subprocess that imports this checkout's smfdfa,
    with only the given BLAS variables set; one that runs past a minute,
    such as a child hung beside a BLAS pool, fails the test."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**env, **blas_vars}, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=60).stdout


@needs_proc_and_fork
def test_import_loads_numpy_with_one_blas_thread_and_restores_the_environment():
    # with no BLAS variable set, importing the package starts no BLAS
    # thread, and the variables it set for NumPy's load are gone again
    assert run_python(["-c", THREADS_AFTER.format(module="smfdfa")]) == "1 []\n"


@needs_proc_and_fork
def test_a_blas_setting_of_the_caller_wins():
    # the caller's value is kept, and BLAS starts as many threads as under
    # NumPy alone; the variables the caller left unset stay unset
    threads = {module: run_python(["-c", THREADS_AFTER.format(module=module)],
                                  OPENBLAS_NUM_THREADS="2")
               for module in ("smfdfa", "numpy")}
    assert threads["smfdfa"] == threads["numpy"]
    assert threads["smfdfa"].endswith(" [('OPENBLAS_NUM_THREADS', '2')]\n")


@needs_proc_and_fork
def test_surrogate_outputs_do_not_depend_on_blas_threads(tmp_path):
    # [TRIVIAL] members forked beside a BLAS pool give the same bytes as
    # with one BLAS thread
    run_python(["-m", "smfdfa.cli", "synth", "cascade", "--levels", "12", "--out", "in"],
               cwd=tmp_path)
    digests = []
    for threads in ("1", "2"):
        run_python(["-m", "smfdfa.cli", "surrogate", "in/series.csv", "--transform", "values",
                    "--n", "11", "--out", threads], cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted((tmp_path / threads).iterdir())})
    assert "surrogate.json" in digests[0] and digests[0] == digests[1]


@needs_proc_and_fork
def test_forked_trainings_beside_a_live_blas_pool():
    # [TRIVIAL] with a two-thread BLAS pool running, rows trained in a
    # forked child equal the rows trained in-process, and no child hangs
    threads, same = run_python(["-c", FORKED_BESIDE_BLAS], OPENBLAS_NUM_THREADS="2").split()
    assert int(threads) > 1 and same == "True"


@needs_proc_and_fork
def test_a_process_running_a_blas_pool_does_not_fork():
    # NumPy imported first starts its BLAS pool before smfdfa can pin it;
    # forking beside it ran the trainings many times slower, so every item
    # runs in the process
    threads, pids = run_python(["-c", PIDS_AFTER.format(first="numpy")]).split(maxsplit=1)
    assert pids == "1 True False\n"
    assert int(threads) > 1 or len(os.sched_getaffinity(0)) == 1


@needs_proc_and_fork
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="one CPU runs every item in the process")
def test_a_one_thread_process_forks_one_share_per_cpu():
    # smfdfa imported first pins BLAS to one thread, so the process runs
    # one OS thread and its second item runs in a forked child
    assert run_python(["-c", PIDS_AFTER.format(first="smfdfa")]) == "1 2 True False\n"
