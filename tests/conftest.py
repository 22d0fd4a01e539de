import numpy as np
import pytest

import gapsgd as G
from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic
from gapsgd.solvers import _spectral_bound


def hand_lasso():
    """A = [[1,2],[3,4]], y = (1,-1), squared loss, singleton L1 blocks."""
    ds = G.Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
    return G.ProblemSpec(dataset=ds, partition=G.BlockPartition.singletons(2),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)


def make_instance(seed, n=100, d=200, model="lasso", ratio=0.5, q=10,
                  sparsity=0.5, support=8, placement="random", noise=0.05,
                  scale=1.0, mu_p=0.0, reg="l1"):
    data = generate_synthetic(SyntheticParams(
        n=n, d=d, sparsity=sparsity, noise=noise, seed=seed, model=model,
        support_size=support, support_placement=placement, feature_scale=scale))
    return build_spec(data, model=model, lambda_ratio=ratio, q=q, mu_p=mu_p, reg=reg)


def tuned_eta(spec, factor=4.0):
    """Shared benchmark step size: 1 / (factor * spectral smoothness bound)."""
    return 1.0 / (factor * _spectral_bound(spec))


@pytest.fixture
def lasso_spec():
    return make_instance(seed=5)


def epoch_rows(report):
    """The trace rows after the first that an epoch produced: every one but a
    last row that returns the refined point straight after the screen that
    left exactly its blocks, which ran no epoch and counts no working
    blocks."""
    rows = report.trace[1:]
    if rows and rows[-1].restart == "refined" and rows[-1].working_blocks == 0:
        rows = rows[:-1]
    return rows


def inert_screening(monkeypatch):
    """Make adsgd's screening inert while its path still runs: every screen
    keeps the set it is given, every working set is the whole safe set, and
    no model is within the refinement's cost bound. _certify and
    safe_radius run as ever, with nothing to act on."""
    monkeypatch.setattr(G.solvers, "screen", lambda spec, dp, r, active, bounds: active)
    monkeypatch.setattr(G.solvers, "_working_blocks",
                        lambda spec, active, blocks, dp: active.blocks)
    monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)


def spy_decided(monkeypatch):
    """Record every epoch of the solves that follow: the slot it returned
    where its row was decided by the slot's refined point, so it ran no
    _restart and evaluated neither candidate, else None. A decided epoch,
    and only one, hands its row the label "refined"."""
    decided, restarts = [], []
    epoch, restart = G.solvers._epoch, G.solvers._restart

    def spied_restart(*args):
        restarts.append(None)
        return restart(*args)

    def spied_epoch(*args):
        before = len(restarts)
        out = epoch(*args)
        ran = len(restarts) > before
        assert ran != (out[2] == "refined")
        decided.append(None if ran else out[5])
        return out

    monkeypatch.setattr(G.solvers, "_restart", spied_restart)
    monkeypatch.setattr(G.solvers, "_epoch", spied_epoch)
    return decided
