"""The names the traced benchmark run (perfbench/tracing.py) wraps and reads.

The traced run wraps the preprocessing stages by module-level name and calls
a few oracle and CLI names directly.  A stage that is renamed or deleted
there only prints "is gone; <span> reads 0" and the run goes on, so these
tests pin every such name from the package side.
"""

import ast
import importlib
from pathlib import Path

import bptol
import bptol.cli
from bptol import diamond_example, preprocess

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _preprocess_stages():
    module = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["PREPROCESS_STAGES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PREPROCESS_STAGES in {TRACING}")


def test_preprocess_stages_resolve_and_run_once(monkeypatch):
    stages = _preprocess_stages()
    assert len(stages) == 5
    calls = {}
    for module, attr, span in stages:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        assert callable(fn), f"{module}.{attr} ({span}) is gone"

        def counted(*args, _fn=fn, _span=span, **kwargs):
            calls[_span] = calls.get(_span, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, attr, counted)
    # preprocess must reach each stage through the wrapped name, once
    preprocess(diamond_example(), [(1, 4)])
    assert calls == {span: 1 for _, _, span in stages}


def test_oracle_names_read_by_the_trace():
    g = bptol.parse_graph("4 5\n1 2 10\n2 3 8\n3 4 6\n1 3 4\n2 4 2\n")
    assert bptol.validate(g) is None
    pairs = bptol.parse_pairs("2\n1 4\n2 3\n", g.n)
    oracle = bptol.preprocess(g, pairs)
    assert g.edge_between(2, 4) == 5
    assert oracle.query_edge(5) == [(bptol.INFINITY, 4), (bptol.INFINITY, bptol.INFINITY)]
    assert bptol.cli._answer_lines(oracle, 5) == ["1 1 4 inf 4", "2 2 3 inf inf"]
    assert [oracle.index.depth(v) for v in range(1, g.n + 1)] == [0, 1, 2, 3]
    assert oracle.tree.edge_ids == {1, 2, 3}
    assert [bool(oracle.tree.is_tree_edge[e]) for e in g.edge_ids()] == [
        True, True, True, False, False]
    assert oracle.tables.L.tolist() == [0, 4, 4, 5, 0, 0]
