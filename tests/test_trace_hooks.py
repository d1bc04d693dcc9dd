"""The benchmark's tracer (perfbench/tracer.py) wraps zecap's stages by
module attribute name.  Loading it and entering `traced` here makes a
renamed or removed stage fail this suite, not only the benchmark's own."""

import importlib.util
import sys
from pathlib import Path

import zecap.search as search
from zecap.model import TRIANGLE_F, complete_digraph, cycle_sym_digraph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_wraps_and_restores_every_stage(monkeypatch):
    # F's kept set is a clique, returned before the kernel; the pentagon's
    # is not, and its search passes through every stage
    tracer = load_tracer(monkeypatch)
    before = vars(search).copy()
    with tracer.traced(tracer.Tracer()) as t:
        assert search.max_clique_bitset is not before["max_clique_bitset"]
        search.exact_M(TRIANGLE_F, 6)
    assert vars(search) == before
    names = {span.name for span in t.spans}
    assert {"search.build_s", "search.reduce_s"} <= names
    assert not names & {"search.pack_s", "search.bnb_s"}
    assert t.counts["search.universe"] == 64
    with tracer.traced(tracer.Tracer()) as t:
        search.omega_s(cycle_sym_digraph(5), complete_digraph(5), 2)
    assert vars(search) == before
    names = {span.name for span in t.spans}
    assert {"search.build_s", "search.reduce_s", "search.pack_s",
            "search.bnb_s"} <= names


def test_traced_search_counts_nodes_and_every_decision(monkeypatch):
    # the decision search recurses through its module attribute, so the
    # tracer's tally counts the recursive calls as well as the top ones
    tracer = load_tracer(monkeypatch)
    with tracer.traced(tracer.Tracer()) as t:
        res = search.omega_s(cycle_sym_digraph(5), complete_digraph(5), 3)
    assert res.size == 10
    assert t.counts["search.nodes"] == 725
    assert t.counts["search.lexmin_calls"] == 525
