"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "smfdfa"


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
        for name in ("detect_single", "_dp_unbounded", "_dp_capped", "_binary_segmentation")
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
    # involves p); _score_window scores its fitted values once, without
    # reconstruct's whole-window MAPE
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
    assert "_score_window" not in callers("reconstruct")
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
