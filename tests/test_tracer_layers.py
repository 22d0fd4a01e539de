"""The benchmark tracer's layers still name real functions of the package.

benchmarks/tracer.py wraps module attributes by name and skips a name it does
not find, so a refactor that renames or inlines a traced function zeroes that
layer's per-layer metrics without any error. These tests fail instead.
"""

import importlib
import importlib.util
import pathlib

import gapsgd as G

from conftest import epoch_rows, make_instance, spy_decided, tuned_eta

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# layers the tracer still names although the package dropped them on purpose
STALE = {("gapsgd.solvers", "_smooth_parts")}


def _tracer():
    spec = importlib.util.spec_from_file_location("gapsgd_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tr = _tracer()
    missing = {(mod, attr) for mod, attr, _ in tr.SPAN_LAYERS + tr.STEP_LAYERS
               if not callable(getattr(importlib.import_module(mod), attr, None))}
    assert missing <= STALE
    for registry, method, _ in tr.METHOD_LAYERS:
        for obj in getattr(G.problem, registry).values():
            assert callable(getattr(obj, method, None)), (registry, obj, method)


def test_traced_screening_solve_reaches_every_outer_layer(monkeypatch):
    """Every layer is reached on each storage of the working design. The
    3%-dense instance runs its epochs on the sparse storage, which gathers
    rows through problem._gather_rows; the 50%-dense one runs on the dense
    storage, which gathers rows by one fancy index and never calls it."""
    refine, found = G.solvers._refine_support, []
    monkeypatch.setattr(G.solvers, "_refine_support",
                        lambda *args: found.append(refine(*args)) or found[-1])
    decided = spy_decided(monkeypatch)
    for sparsity, dense in ((0.03, False), (0.5, True)):
        found.clear()
        decided.clear()
        spec = make_instance(seed=1, n=60, d=80, q=10, sparsity=sparsity)
        cfg = G.SolverConfig(seed=1, gap_tol=1e-6, max_outer=40, eta=tuned_eta(spec, 1.0))
        with _tracer().Tracer().trace() as record:
            rep = G.solve(spec, cfg)
        calls = {layer: stat.calls for layer, stat in record.stats.items()}
        # one evaluation starts the solve, each epoch evaluates two candidates
        # unless the slot's refined point decided its row (one epoch on each
        # storage), and each refined point is evaluated once; every row
        # but the first ran an epoch, or returns the refined point its screen
        # settled
        epochs = len(epoch_rows(rep))
        assert all(r.working_blocks > 0 for r in epoch_rows(rep))
        assert calls["solvers.inner_budget"] == epochs == len(decided)
        assert epochs - decided.count(None) == 1
        refined = sum(x is not None for x in found)
        assert refined > 0
        evaluations = 1 + 2 * decided.count(None) + refined
        assert calls["duality.dual_point"] == calls["duality.dual_value"] == evaluations
        assert calls["duality.screen"] == rep.outer_iters
        assert calls["duality.column_bounds"] == 1
        assert record.stats["duality.screen"].units == (spec.partition.q
                                                        - rep.active_history[-1].size)
        for layer in ("problem.loss_deriv", "problem.block_prox",
                      "problem.soft_threshold", "solvers.inner_budget"):
            assert calls[layer] > 0, layer
        assert (calls["problem.gather_rows"] == 0) == dense
