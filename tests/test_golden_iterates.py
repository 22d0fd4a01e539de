"""Golden outer iterates: every stochastic solver's trajectory, pinned bit for bit.

The values were recorded from the engine that ran its inner loop over
full-length vectors and whole CSR rows. The engine now runs on the design
compacted to the surviving features, and that must change no bit: a screened
column only ever added vals * 0.0 to a row sum, and it never lies inside the
sampled block. The cases cover every solver, contiguous (uneven) and scattered
L1 partitions, logistic loss with group-L2 blocks, mu_p > 0, batch_size == n,
and screening that drops blocks over several outer iterations.

The group-L2 cases with blocks of 8 and 9 (contiguous and scattered, for
proxsvrg and for asgd, whose screening compacts the design after dropping
blocks of both sizes) and the two reference_solve cases (group-L2 on the
scattered partition, and L1), which pin x_final, gap and outer_iters, were
recorded from the per-block prox loop, before the full-vector prox ran over
size classes of equal-size blocks. Their blocks pass numpy's 8-wide unrolled
summation and give two size classes, which blocks of 4 never do.

The two reference cases were re-recorded when reference_solve began its
backtracking at a one-pass bound from the row and column norms, instead of
at a power iteration's estimate of the smoothness constant, and formed the
extrapolated point's product as a combination of two products it holds. The
L1 case now takes 29 iterations instead of 36 and returns the same x_final
and gap, bit for bit, from its support refinement. The group-L2 case takes 7
instead of 10 and stops at gap 3.0e-14 instead of 9.8e-11, both below the
default tol 1e-10; its nonzeros moved by about 1e-4 relative.

The iterates of adsgd-full-batch-scattered were re-recorded when every solver
moved onto one step kernel. The old full-batch block step summed each column
of a scattered block with a BLAS dot product over the column's stored
entries; the kernel adds the same products one at a time in row order, as
every other step does. One coordinate of one iterate moved by 2 ulp
(2.3e-16 relative); the gaps, active blocks, outer_iters and coord_updates of
that case, and every value of the other cases, are as recorded before.

The CHUNK_CASES were recorded from the engine that drew, gathered and masked
one step at a time, before it planned each epoch in chunks of steps. They
run epochs of several chunks whose length m_k is no multiple of the chunk and
changes as screening drops blocks, a batch of one row, a full batch (only
blocks are drawn), and rows so long that the entry cap sets the chunk. They
pin the gaps, the active blocks, the counts and the nonzeros of x_final.

The cases of the screening solvers (adsgd and asgd: nine CASES and four
CHUNK_CASES) were re-recorded when screening took the Gap Safe radius
sqrt(2 n gap max(c, 2 n mu_p)) in place of sqrt(2 T gap), every gap was
measured on the full problem, and each epoch ran on a working set inside the
safe set. asgd-group-uneven and asgd-group-scattered kept their bits: their
screens drop the same blocks at the same iterations, and their working set is
the whole safe set. The mrbcd, proxsvrg and reference cases did not move.

Every stochastic case but asgd-group-scattered and asgd-long-epoch was
re-recorded when each epoch began to restart from the better of its average
and its last inner iterate, by full-problem gap, in place of the average
alone. Those two kept their bits, since the average won every epoch; the
others restart from both kinds of iterate. Every case sets m, so the default
inner count of n moved none of them. The reference cases did not move.

The working designs of all these instances are 50-100% dense, so the engine
would run them on its dense storage, whose matrix products add the same
terms in another order than the entry sums did. Every case above is pinned
on the sparse storage instead: its run sets solvers._RHO to inf, so no
working design counts as dense, and the values recorded before the dense
storage existed still hold bit for bit. The DENSE_CASES pin the dense
storage (_RHO = 0, every working design dense) on one case per solver, a
full batch, mu_p > 0, a scattered group-L2 partition and an epoch of several
chunks; they were recorded when that storage was added.

Fourteen cases of the screening solvers were re-recorded when a screening
solve began to refine its iterate on an identified model and to certify it,
screen and pick working sets with the refined dual point where that gave a
smaller gap: adsgd-full-batch, adsgd-full-batch-scattered,
adsgd-l1-contiguous, adsgd-l1-scattered, adsgd-logistic-group, adsgd-mu-p,
asgd-full-batch-mu-p, adsgd-full-batch-long-epoch, adsgd-long-epoch,
dense-adsgd-full-batch, dense-adsgd-l1-contiguous, dense-adsgd-long-epoch,
dense-adsgd-mu-p and dense-asgd-full-batch-mu-p. Their gaps fall from the
first identified row on, and their later iterates follow the screens and
working sets of those gaps; adsgd-full-batch-long-epoch now certifies after
two outer iterations and returns its refined point. The other asgd cases,
every mrbcd and proxsvrg case and both reference cases did not move.

python tests/test_golden_iterates.py NAME... prints each named case's entry
from a fresh run, in the layout below, for such a re-record.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest

import gapsgd as G

from conftest import make_instance, tuned_eta


def _scattered(spec, q):
    """The same instance under a partition whose blocks interleave: j, j+q, j+2q, ..."""
    d = spec.dataset.d
    part = G.BlockPartition([np.arange(j, d, q) for j in range(q)])
    return dataclasses.replace(spec, partition=part)


def _lasso(seed, **kw):
    return make_instance(seed=seed, n=30, d=20, q=6, support=3, ratio=0.6, **kw)


def _logistic(seed):
    return make_instance(seed=seed, n=40, d=20, q=5, support=3, ratio=0.6,
                         model="logistic", reg="group_l2")


def _logistic_uneven(seed):
    """Group-L2 blocks of 9, 9, 8 and 8: two size classes, both past numpy's
    8-wide unrolled summation."""
    return make_instance(seed=seed, n=40, d=34, q=4, support=3, ratio=0.9,
                         model="logistic", reg="group_l2")


# name -> (spec builder, SolverConfig fields beyond the shared ones below)
CASES = {
    "adsgd-l1-contiguous": (lambda: _lasso(6), dict(solver="adsgd")),
    "adsgd-l1-scattered": (lambda: _scattered(_lasso(6), 5), dict(solver="adsgd")),
    "adsgd-logistic-group": (lambda: _logistic(6), dict(solver="adsgd")),
    "adsgd-mu-p": (lambda: _lasso(7, mu_p=0.05), dict(solver="adsgd")),
    "adsgd-full-batch": (lambda: _lasso(6), dict(solver="adsgd", batch_size=30)),
    "adsgd-full-batch-scattered": (lambda: _scattered(_lasso(6), 5),
                                   dict(solver="adsgd", batch_size=30)),
    "mrbcd-l1-scattered": (lambda: _scattered(_lasso(6), 5), dict(solver="mrbcd")),
    "mrbcd-logistic-group": (lambda: _logistic(6), dict(solver="mrbcd")),
    "asgd-l1-contiguous": (lambda: _lasso(6), dict(solver="asgd")),
    "asgd-logistic-group": (lambda: _logistic(6), dict(solver="asgd")),
    "asgd-group-uneven": (lambda: _logistic_uneven(3), dict(solver="asgd")),
    "asgd-group-scattered": (lambda: _scattered(_logistic_uneven(3), 4),
                             dict(solver="asgd")),
    "asgd-full-batch-mu-p": (lambda: _lasso(7, mu_p=0.05),
                             dict(solver="asgd", batch_size=30)),
    "proxsvrg-l1-scattered": (lambda: _scattered(_lasso(6), 5), dict(solver="proxsvrg")),
    "proxsvrg-logistic-group": (lambda: _logistic(6), dict(solver="proxsvrg")),
    "proxsvrg-full-batch": (lambda: _lasso(6), dict(solver="proxsvrg", batch_size=30)),
    "proxsvrg-group-uneven": (lambda: _logistic_uneven(3), dict(solver="proxsvrg")),
    "proxsvrg-group-scattered": (lambda: _scattered(_logistic_uneven(3), 4),
                                 dict(solver="proxsvrg")),
}

# name -> spec builder for the deterministic reference solver at its default tol
REFERENCE_CASES = {
    "reference-l1": lambda: _lasso(6),
    "reference-group-scattered": lambda: _scattered(_logistic_uneven(3), 4),
}


@contextlib.contextmanager
def _storage(rho):
    """Every working design on one storage: rho = inf keeps them all sparse,
    rho = 0 makes them all dense."""
    saved, G.solvers._RHO = G.solvers._RHO, rho
    try:
        yield
    finally:
        G.solvers._RHO = saved


def run_case(name):
    build, fields = CASES[name]
    spec = build()
    cfg = G.SolverConfig(seed=7, m=40, max_outer=10, gap_tol=1e-12,
                         eta=tuned_eta(spec), keep_iterates=True, **fields)
    with _storage(math.inf):
        return G.solve(spec, cfg)


def _floats(hexes):
    return np.array([float.fromhex(h) for h in hexes.split()])


GOLDEN = {
    "adsgd-full-batch": {
        "outer_iters": 10,
        "coord_updates": 662,
        "active_blocks": [6, 6, 5, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.1183061c85c38p-3 0x1.1d8d8acd815f0p-4 "
            "0x1.750eecf7e0000p-8 0x1.cb124ae0f9000p-9 0x1.87cb9aab28000p-10 "
            "0x1.8ebcbe809a000p-11 0x1.1df48822f8000p-12 0x1.0336dbbc1c000p-13 "
            "0x1.cffc7b4c70000p-15 0x1.ea42f50460000p-16"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2712482251590p-2 0x1.1b5cee892244ap-2 0x0.0p+0 0x0.0p+0 "
            "0x1.0e83ed2252edcp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7ce7bbee21a06p-2 0x1.e19a68f31bdd0p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.5d3b3d1e9b008p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.8b1b2060109cap-2 0x1.147821052ab8cp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.78b8101457c8ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.8e1fc8f60eea0p-2 0x1.273c17a247db1p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.7446d2e464538p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.8b60bc7b9f470p-2 0x1.404dac8439b35p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6e9d29e5fed96p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.82f0acd467536p-2 0x1.4d754838a39e3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.661f74522edfep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7e5a90342b28ep-2 0x1.5c3af3a697cd3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.5ec7d7471ba8ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.786d563d5338cp-2 0x1.61a05c7c6778fp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.569e7d42703e8p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7434f063d722cp-2 0x1.65b2dc8e63a94p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.523b219654084p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6f829d6eef370p-2 0x1.66e93779e1248p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4f53eb9105330p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-full-batch-scattered": {
        "outer_iters": 10,
        "coord_updates": 960,
        "active_blocks": [5, 5, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.03c8d7936fb40p-4 0x1.4315c05733000p-9 "
            "0x1.9c18f879ef000p-11 0x1.1f75c48c20000p-13 0x1.0e65b81a90000p-15 "
            "0x1.b256147700000p-18 0x1.a4f4ca6100000p-20 0x1.d4fc6aac00000p-22 "
            "0x1.d04150c000000p-24 0x1.7ee61b0000000p-26"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.db98b907d6dabp-3 0x1.d83081731a0a2p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.2771d2563ad80p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.31d012e9920fep-2 0x1.462b556d015a7p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.5cb8b5fdc9086p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.451658c3d4965p-2 0x1.595768e3bfdd0p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.5bf9a0ed6d7bdp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.57165922aea1ep-2 0x1.677b2774d2653p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.5666150a88cc8p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.5fba2854305b4p-2 0x1.6aeb01a886a6cp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.50458a44d8a22p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.65d728f5ce55ep-2 0x1.6bfa964c70ad0p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4e1995cd200fep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.67cb9d0495996p-2 0x1.6c4a4adf3cf44p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4c23a869fcd32p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.686c76a1c47bap-2 0x1.6c7ddaadf09f4p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4b0f8d7f5a628p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.689c87f86f5d6p-2 0x1.6ca601d55df29p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a625c0505cb2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68d3086fdec0cp-2 0x1.6caf9047c95b6p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a092309d06bap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-l1-contiguous": {
        "outer_iters": 10,
        "coord_updates": 657,
        "active_blocks": [6, 6, 4, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.27e9fafe0a750p-3 0x1.e2c8f96012200p-5 "
            "0x1.c3945cc253800p-9 0x1.c323d101e0000p-11 0x1.ab131c0c1a000p-12 "
            "0x1.9a06e73210000p-13 0x1.11b820dff0000p-14 0x1.dc3dcef520000p-16 "
            "0x1.04a05102c0000p-16 0x1.c813fab100000p-18"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.ac17635d1f2c8p-4 0x1.28dac62a99a26p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.955b003fd1332p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.327eef7cc7564p-2 0x1.fa38ed17e8f1ap-2 0x0.0p+0 0x0.0p+0 "
            "0x1.7270be5785356p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7e8b88a9cac76p-2 0x1.28da7f9470cadp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.7e80105962a6ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7e79282d3859cp-2 0x1.4dfd1dfdecf33p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.7513342b53b50p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7a053a09e00e6p-2 0x1.5b28e944de0b6p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6da5256c1095ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7716bbbf0b340p-2 0x1.62beb22c3dea7p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.63af34f0cf64cp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.731baa0ec02f2p-2 0x1.646498fc2f303p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.536920c76d956p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6fb0a3f8ab626p-2 0x1.67765749d4ce8p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.50b813c176016p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6d38568e5a75ep-2 0x1.68786224294b6p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4e3427cf098a4p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6cceb934d64acp-2 0x1.6a4210695e9e7p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4caf129d62c46p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-l1-scattered": {
        "outer_iters": 10,
        "coord_updates": 960,
        "active_blocks": [5, 5, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.bf2457960e800p-6 0x1.8ba9694dc9000p-10 "
            "0x1.281ba053da000p-12 0x1.eb4dddb688000p-14 0x1.400c2b8b40000p-15 "
            "0x1.10c60ab080000p-17 0x1.a806542200000p-19 0x1.0b3dff9000000p-20 "
            "0x1.73766e1800000p-22 0x1.50f069c000000p-23"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.f7c787ddaab33p-3 0x1.255abd5f9483bp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.51ad75df52bb1p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.5289820550bb4p-2 0x1.4d8e2406b6edcp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.332b00fcd6d6ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6994db056c12cp-2 0x1.5b215d1266939p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.47a6b4c58afd4p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6d520e2ce244ap-2 0x1.6042e567f067dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4df3812a3d040p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6e389061c0026p-2 0x1.659404daea7cap-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4e3166e6e37a0p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6cd0cd0962dd4p-2 0x1.69c60438e8293p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4c7ef10632b30p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6b65aaef43da4p-2 0x1.6ae8737b81febp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4b55ce8d32a60p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6aa759fecff4cp-2 0x1.6bfa344ed2f66p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4ad936d5f2fb2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69c835c6daf86p-2 0x1.6c38a3e5f4417p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a6fcc4aadfeep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6971ef4eb46d2p-2 0x1.6c6101f311279p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a2da41fc195cp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 640,
        "active_blocks": [5, 5, 4, 2, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.319e957c93ae0p-6 0x1.1fb655c7bca80p-8 "
            "0x1.07f820c32a000p-14 0x1.33a80c7f30000p-17 0x1.5616b36f80000p-19 "
            "0x1.434234fe00000p-22 0x1.5a58386000000p-25 0x1.1179d44000000p-27 "
            "0x1.27cd750000000p-29 0x1.005a880000000p-32"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.e70e0f6b9d722p-4 0x1.baadc700fc5ffp-6 0x1.cfcd27ffd3db6p-6 "
            "0x1.b78e2633e9ffap-9 0x1.54d081f1d6715p-3 0x1.151e3c06339f3p-3 "
            "0x1.7c5639bcfaa70p-3 -0x1.52cf206fff31ap-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.cfae790eaa6ecp-3 0x1.01f37de0a43e1p-4 0x1.6128441d787cep-4 "
            "-0x1.c71b1aca9d520p-7 0x1.a30a367012d38p-3 0x1.5cbced6613f55p-3 "
            "0x1.d2f3f684cffaap-3 -0x1.81664b0c055fap-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.14bc1579d2a15p-2 0x1.4073a6db0a08ep-4 0x1.977302ded3859p-4 "
            "-0x1.62dd0630dc70fp-6 0x1.ab2a337979391p-3 0x1.7775831d47ee8p-3 "
            "0x1.e91ffd7503b15p-3 -0x1.97c1348d2e0f0p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.243cb46b64344p-2 0x1.5800f0756cc51p-4 0x1.b27a7cdba7ad8p-4 "
            "-0x1.66b806112a358p-6 0x1.ab93be0a4d8c9p-3 0x1.7d51d94283539p-3 "
            "0x1.f43d61a154996p-3 -0x1.9ff58dbbd8e1bp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.27828a7454729p-2 0x1.5f8c579875490p-4 0x1.b7fa8d3977c79p-4 "
            "-0x1.65bdb3f53d302p-6 0x1.aef040e5cd58ap-3 0x1.81682eda44ee7p-3 "
            "0x1.f8850c82330e2p-3 -0x1.a554815fc8e46p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2b2bcd044c55dp-2 0x1.63d79f6b41521p-4 0x1.bc6101b0b5314p-4 "
            "-0x1.6970a7260af31p-6 0x1.af97fe1b8cbe5p-3 0x1.83a1b83480d17p-3 "
            "0x1.f9b62946d1268p-3 -0x1.a64f27556abb6p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2c2923a58819ep-2 0x1.64eef8c24f8e7p-4 0x1.bf564bf79022cp-4 "
            "-0x1.69650f359a64fp-6 0x1.af90d7116f168p-3 0x1.845f5071bf211p-3 "
            "0x1.fa126fbe1d8d8p-3 -0x1.a6d15a60b2738p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2c7d889e466c1p-2 0x1.65a27e1786184p-4 0x1.bfe1c593ef7a5p-4 "
            "-0x1.6a7d422ccc6c7p-6 0x1.af9d613ec6e86p-3 0x1.84948aa806e9bp-3 "
            "0x1.fa3a391e10f6fp-3 -0x1.a7072a7acecb6p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2ca0a88785dcep-2 0x1.65d3e9bab1dccp-4 0x1.c01bc732f9731p-4 "
            "-0x1.6aba18839e848p-6 0x1.af9f2464c9df6p-3 0x1.84b3c8c4f87d7p-3 "
            "0x1.fa4259ffe0ea8p-3 -0x1.a71ac9f644f07p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cbda5d6a0219p-2 0x1.65f3a4ebd7605p-4 0x1.c048e1b04d94dp-4 "
            "-0x1.6ab710fc01c2ep-6 0x1.afa102f274362p-3 0x1.84b77eafbeda9p-3 "
            "0x1.fa4c4900bfeb4p-3 -0x1.a71ef0289868dp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },

    "adsgd-mu-p": {
        "outer_iters": 10,
        "coord_updates": 489,
        "active_blocks": [6, 6, 6, 3, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.dd2f48fa7de30p-3 0x1.5c8f81037d380p-4 "
            "0x1.3ee0417fc4d80p-5 0x1.842029c808000p-12 0x1.41ad3ff368000p-13 "
            "0x1.def62a2ae0000p-15 0x1.a80fa13100000p-17 0x1.1c03845000000p-18 "
            "0x1.84a0066a00000p-20 0x1.0f41d22c00000p-21"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.93b54cff21132p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.45a96e559bedcp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.c7a1116c84cdbp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.a0d2d34c651edp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.1b96f612c66e4p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.c128412e80085p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.42d6121ead2f4p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.c4eeeb3cc4d79p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.489f32ab5358ap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.c14e2d7a80873p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.4cb51db585f46p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.be9baf7bdf7e9p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.508d50f8a8f28p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.bdc860c3602b7p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.51cbfc50e6852p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.bbfb7c50a2ae1p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.523c2301823ecp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.ba75b57d9a503p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.5285cfae1b516p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b9a29bc58f153p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "asgd-full-batch-mu-p": {
        "outer_iters": 10,
        "coord_updates": 980,
        "active_blocks": [6, 6, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.7379b064ca800p-6 0x1.4b43024834000p-13 "
            "0x1.0f9bd33f80000p-18 0x1.aabd118800000p-21 0x1.23f6358000000p-25 "
            "0x1.7e4c140000000p-29 0x1.62f3600000000p-32 0x1.68e9000000000p-35 "
            "0x1.7598000000000p-38 0x0.0p+0"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.205cb94164684p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.6ffcfff416213p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.4bb7656d00a82p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.ab9ac9ecf1aadp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.5209d1065bb38p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b5e0b7d91c0abp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52a1bd13d82cap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b72f587e7b680p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f3ba8e856a2p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b82616927445fp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f98ec5e5b9ep-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b8626dfa3e3e9p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f803e00287ap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b873c9909b5dfp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f6e64852c76p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b8795e896f869p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f6695790590p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b87b4712fe8cfp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f61cafda4cfp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b87c52e03aea5p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "asgd-group-scattered": {
        "outer_iters": 10,
        "coord_updates": 3400,
        "active_blocks": [4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.be416fa97ed80p-8 0x1.746e5e0c78400p-7 0x1.6e6f4a2b61460p-6 "
            "0x1.1153fcf3ed640p-7 0x1.6deddd0f3f840p-6 0x1.64175fdd2dec0p-6 "
            "0x1.b0354da3c2600p-6 0x1.75945d18250a0p-6 0x1.cd9042322f920p-6 "
            "0x1.7f218a952eae0p-6 0x1.063a73d458b00p-7"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0",
            "-0x1.9aaa7e4e5093ap-6 0x0.0p+0 0x0.0p+0 0x1.f946a2b5684cbp-5 "
            "0x1.167d8ee165b1cp-10 0x0.0p+0 0x0.0p+0 -0x1.66e378e9e0d0fp-6 "
            "0x1.f490592a8c512p-4 0x0.0p+0 0x0.0p+0 0x1.2506b7933bd60p-4 "
            "0x1.12e8ba645d891p-3 0x0.0p+0 0x0.0p+0 -0x1.250069050c939p-6 "
            "-0x1.adc3e578e35cap-11 0x0.0p+0 0x0.0p+0 -0x1.937c3df35ca8ep-6 "
            "-0x1.88bd4952d3824p-8 0x0.0p+0 0x0.0p+0 -0x1.6f58715c59663p-4 "
            "-0x1.9c31fe24ba032p-6 0x0.0p+0 0x0.0p+0 0x1.deac26d9e4560p-9 "
            "0x1.c1f5c1b0b47c8p-5 0x0.0p+0 0x0.0p+0 0x1.538b92320618bp-5 "
            "-0x1.442f2f7d89cf3p-4 0x0.0p+0",
            "-0x1.1da1cc28f30eep-5 0x0.0p+0 0x0.0p+0 0x1.5e8b77d099bfbp-5 "
            "0x1.28101a2d15d52p-6 0x0.0p+0 0x0.0p+0 -0x1.e9f65526dd478p-6 "
            "0x1.63f712414a242p-4 0x0.0p+0 0x0.0p+0 0x1.d81a27960d8fep-3 "
            "0x1.cf9e7d9d71ce8p-4 0x0.0p+0 0x0.0p+0 -0x1.237f1e80cc8e9p-5 "
            "0x1.566ea2d8d4b7fp-7 0x0.0p+0 0x0.0p+0 -0x1.a4ddab27ecf63p-6 "
            "0x1.2f503e0fb9590p-8 0x0.0p+0 0x0.0p+0 -0x1.154e417f54842p-3 "
            "-0x1.0ae555b56e1b2p-4 0x0.0p+0 0x0.0p+0 -0x1.f5d4f520faf98p-5 "
            "0x1.087371f011e83p-5 0x0.0p+0 0x0.0p+0 0x1.5edeebd263cd8p-5 "
            "-0x1.3f6e4e14997a6p-4 0x0.0p+0",
            "-0x1.26bd203919cbcp-6 0x0.0p+0 0x0.0p+0 0x1.23a8a2d6dcddep-6 "
            "0x1.089ddbfebd282p-5 0x0.0p+0 0x0.0p+0 -0x1.5bddce47e3e71p-6 "
            "0x1.1d7e81259c392p-3 0x0.0p+0 0x0.0p+0 0x1.c27dc297d57c8p-4 "
            "0x1.dd2d55b1a3eb3p-4 0x0.0p+0 0x0.0p+0 0x1.89f84a76ecab6p-6 "
            "0x1.5326b51c676b2p-8 0x0.0p+0 0x0.0p+0 -0x1.55579247ceb2bp-6 "
            "-0x1.4e0b02c8bb252p-7 0x0.0p+0 0x0.0p+0 -0x1.b6998591c2020p-5 "
            "-0x1.c0032e7abecb6p-5 0x0.0p+0 0x0.0p+0 -0x1.559019fb751e7p-6 "
            "0x1.574ed9b920346p-6 0x0.0p+0 0x0.0p+0 0x1.2802dd440ccc3p-5 "
            "-0x1.ebee226a5cebap-5 0x0.0p+0",
            "-0x1.63b2f6a3da591p-6 0x0.0p+0 0x0.0p+0 0x1.8b698b509ee26p-6 "
            "0x1.0b4e36243c575p-6 0x0.0p+0 0x0.0p+0 -0x1.41347b64dab4dp-5 "
            "0x1.d9d2c7d8abd26p-4 0x0.0p+0 0x0.0p+0 0x1.c52463c44246dp-3 "
            "0x1.03fd4e55770d3p-3 0x0.0p+0 0x0.0p+0 0x1.2dfbdf7254583p-6 "
            "0x1.0f86eac07344ep-8 0x0.0p+0 0x0.0p+0 0x1.216133ae2ab1dp-7 "
            "0x1.6082be4f06260p-8 0x0.0p+0 0x0.0p+0 -0x1.aa96572716e43p-4 "
            "-0x1.27c8fc7d207eap-4 0x0.0p+0 0x0.0p+0 -0x1.229ba5ea60b60p-5 "
            "0x1.513bacb78db53p-6 0x0.0p+0 0x0.0p+0 0x1.c12476750ab8dp-4 "
            "-0x1.a36b3e15cb32bp-4 0x0.0p+0",
            "-0x1.5de9992af0043p-4 0x0.0p+0 0x0.0p+0 0x1.7109cf5536051p-5 "
            "0x1.68b2844dea9aep-4 0x0.0p+0 0x0.0p+0 -0x1.8d5f13622b5d2p-4 "
            "0x1.be6413a8025cap-4 0x0.0p+0 0x0.0p+0 0x1.96784af7a6217p-4 "
            "0x1.e432ee3c9d0fdp-4 0x0.0p+0 0x0.0p+0 0x1.d488514ae35fdp-6 "
            "0x1.e541920434a7bp-6 0x0.0p+0 0x0.0p+0 -0x1.1f07c56227b52p-7 "
            "-0x1.1deb77d16d7f1p-5 0x0.0p+0 0x0.0p+0 -0x1.ecfd978bf9458p-5 "
            "-0x1.29a17ff8ce51fp-4 0x0.0p+0 0x0.0p+0 -0x1.3c4715a4d026ep-5 "
            "0x1.9ab7fda817d32p-4 0x0.0p+0 0x0.0p+0 0x1.740c307014402p-4 "
            "-0x1.1384f25f87a3cp-3 0x0.0p+0",
            "-0x1.5d6f3a778fc26p-4 0x0.0p+0 0x0.0p+0 0x1.ab56dbe7de67bp-5 "
            "0x1.f0bc4e20b4172p-5 0x0.0p+0 0x0.0p+0 -0x1.9a4e1b27809c2p-4 "
            "0x1.6d08e6bb8ebbfp-3 0x0.0p+0 0x0.0p+0 0x1.490abb941d381p-3 "
            "0x1.23aba10f7626fp-3 0x0.0p+0 0x0.0p+0 0x1.724b82c16adb0p-11 "
            "0x1.b3dac59986275p-5 0x0.0p+0 0x0.0p+0 -0x1.4d417fb0338abp-6 "
            "-0x1.94e0bfebc559dp-4 0x0.0p+0 0x0.0p+0 -0x1.af4f22ae653a6p-4 "
            "-0x1.e20b8f195d455p-5 0x0.0p+0 0x0.0p+0 -0x1.8ba4c05e83408p-5 "
            "0x1.9a42385c29856p-5 0x0.0p+0 0x0.0p+0 0x1.99110cebf4416p-4 "
            "-0x1.4557619a0dc30p-3 0x0.0p+0",
            "-0x1.5dc74f057c9bap-5 0x0.0p+0 0x0.0p+0 0x1.2dde68301c7f9p-4 "
            "-0x1.5eed39c4a4cfcp-7 0x0.0p+0 0x0.0p+0 -0x1.5a05208203666p-4 "
            "0x1.273c4805cfac9p-3 0x0.0p+0 0x0.0p+0 0x1.291279f8b5646p-3 "
            "0x1.888afc264685fp-3 0x0.0p+0 0x0.0p+0 0x1.9af38203af97ep-8 "
            "0x1.a279ae6d1c0e3p-4 0x0.0p+0 0x0.0p+0 -0x1.c90fb9fff090bp-8 "
            "-0x1.287a4dbf56d60p-4 0x0.0p+0 0x0.0p+0 -0x1.0212acf253944p-3 "
            "-0x1.c6ec3945a97a5p-5 0x0.0p+0 0x0.0p+0 -0x1.77062e0861520p-5 "
            "0x1.9340fd2e7dd68p-5 0x0.0p+0 0x0.0p+0 0x1.63ea1706d53b6p-5 "
            "-0x1.4b0b3bdac32c7p-4 0x0.0p+0",
            "-0x1.8bcf15920b461p-5 0x0.0p+0 0x0.0p+0 0x1.4b02c622234bcp-4 "
            "0x1.4bb7b62841e05p-5 0x0.0p+0 0x0.0p+0 -0x1.c826b535550dbp-5 "
            "0x1.2c797b3917156p-3 0x0.0p+0 0x0.0p+0 0x1.2d7bcef82c7f6p-3 "
            "0x1.1a1d8ec30b1efp-3 0x0.0p+0 0x0.0p+0 -0x1.ebbafe3d97956p-10 "
            "0x1.f0d446e911616p-4 0x0.0p+0 0x0.0p+0 0x1.339f5efb00922p-7 "
            "-0x1.d17c8ec09c70dp-4 0x0.0p+0 0x0.0p+0 -0x1.ea120214c2bd5p-4 "
            "-0x1.ea8c56994c1a8p-4 0x0.0p+0 0x0.0p+0 -0x1.f23dda9221aa3p-6 "
            "0x1.d5ed8b7879243p-5 0x0.0p+0 0x0.0p+0 0x1.a89d30cf3bbe2p-6 "
            "-0x1.f796eb9146035p-7 0x0.0p+0",
            "-0x1.e8fe385578b6ap-5 0x0.0p+0 0x0.0p+0 0x1.64ab4ffadb5f9p-5 "
            "0x1.2354e3a30ca88p-5 0x0.0p+0 0x0.0p+0 -0x1.7e119995c6d8cp-7 "
            "0x1.650a580055c09p-3 0x0.0p+0 0x0.0p+0 0x1.1b81b8086ad08p-3 "
            "0x1.8b2d7d5bed7d5p-3 0x0.0p+0 0x0.0p+0 0x1.ff4eea6266c88p-7 "
            "0x1.115b7a040664bp-4 0x0.0p+0 0x0.0p+0 -0x1.e860afe590fe3p-6 "
            "0x1.7c790ed8ae136p-5 0x0.0p+0 0x0.0p+0 -0x1.6b329085eecd4p-4 "
            "-0x1.1d928f911950ap-3 0x0.0p+0 0x0.0p+0 -0x1.58271d031a4bap-7 "
            "0x1.b0280990bed5ap-8 0x0.0p+0 0x0.0p+0 0x1.64c1d5408d92fp-5 "
            "-0x1.14ef113ef1650p-3 0x0.0p+0",
            "-0x1.094eac2b7092ep-6 0x0.0p+0 0x0.0p+0 0x1.514ab6bce3d93p-6 "
            "0x1.adc6bc6e0e980p-6 0x0.0p+0 0x0.0p+0 -0x1.51914fd1d2ebep-6 "
            "0x1.0fc6a20ec5365p-3 0x0.0p+0 0x0.0p+0 0x1.123eb03b506fcp-4 "
            "0x1.2675d00a0ef42p-3 0x0.0p+0 0x0.0p+0 0x1.497a9e7c10b5dp-7 "
            "0x1.b35e8427774a5p-9 0x0.0p+0 0x0.0p+0 0x1.98ae5be939d4dp-9 "
            "-0x1.c7a175a9ecb90p-11 0x0.0p+0 0x0.0p+0 -0x1.b9668fff8775ep-6 "
            "-0x1.3325117c583d0p-4 0x0.0p+0 0x0.0p+0 -0x1.ae11046e8b786p-8 "
            "0x1.a08ac38db2032p-6 0x0.0p+0 0x0.0p+0 0x1.0ca566e9e709ep-5 "
            "-0x1.626d55adce14ep-4 0x0.0p+0",
        ],
    },
    "asgd-group-uneven": {
        "outer_iters": 10,
        "coord_updates": 7800,
        "active_blocks": [4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.483a73cfbcb80p-8 0x1.d5732b018ff60p-6 0x1.5acc748cb7ce0p-6 "
            "0x1.6e96db4dde440p-6 0x1.bbd5b81406e80p-6 0x1.1e0c9a9498ef0p-5 "
            "0x1.fd64008d31280p-6 0x1.3950bbca31f20p-6 0x1.397c98b8de200p-6 "
            "0x1.db2b64343ae20p-6 0x1.05a6ee7d0c850p-5"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0",
            "-0x1.554d41611ffc2p-5 -0x1.01072d2417bdcp-4 -0x1.e0842adc10b9dp-6 "
            "0x1.2f59e522a48aap-4 0x1.fccf0966382d0p-7 0x1.36c938ca689cbp-4 "
            "0x1.dd87c1ad1bcd4p-4 -0x1.818e827a22a6bp-5 0x1.ce1353528f9afp-4 "
            "0x1.dc1f4454486edp-6 0x1.0aeed3d3fe1f1p-5 0x1.bb841b17515dbp-4 "
            "0x1.5e63cb4bc5666p-4 -0x1.a3365e43682a6p-6 -0x1.ad4a260eed8fcp-7 "
            "-0x1.b1d9b686caab0p-6 -0x1.34804cd19ca52p-7 -0x1.935f17eee002ap-8 "
            "0x1.81e5c7198d034p-5 -0x1.022c98c5acf2cp-5 -0x1.40397a66d106ep-6 "
            "0x1.efd090abf738ep-4 0x1.731360d8bf1c7p-6 -0x1.e4d49fe781b6fp-4 "
            "-0x1.712b2bb8c35cep-5 0x1.85ceddbcb9e10p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.2b333c1f3e5fep-6 -0x1.2ad62a9c89c93p-6 -0x1.efd5b4896f039p-6 "
            "0x1.5c86bdd98cb2ep-7 0x1.69e534d820eeep-6 0x1.666190aa744a7p-10 "
            "0x1.4f92099de6dccp-4 -0x1.b418883d4fba2p-6 0x1.9f177f3f68e42p-4 "
            "0x1.756fe643db356p-7 0x1.288e2bc0c9b6fp-5 0x1.38324373fa456p-3 "
            "0x1.e417f926c34b7p-4 -0x1.149ebe8590c2fp-7 -0x1.cd00787523a8ep-7 "
            "-0x1.0edf337332933p-9 0x1.fc7936800514ap-7 -0x1.83624f691faddp-8 "
            "0x1.3b3b16b28f7d1p-5 -0x1.5f132b3517864p-8 -0x1.4f910e8db5c9ep-7 "
            "0x1.e8af61ae44e93p-4 0x1.3cd951db7b1b2p-6 -0x1.a74d585cc9bb0p-5 "
            "-0x1.3e1dd6ce5a789p-5 0x1.cebb9d529b633p-8 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.0c2b86fc38e36p-4 -0x1.3f5a29c2907f2p-6 -0x1.4f8ed110aac52p-4 "
            "0x1.6849c1d450115p-6 0x1.7ccf107ab469cp-5 0x1.87bbf62feac10p-7 "
            "0x1.df95d187b27e2p-4 -0x1.0b3b1785c7364p-5 0x1.9ee5239723a2ep-5 "
            "0x1.262a2a444b8d6p-13 -0x1.b1a5194773ffbp-11 0x1.5cb7512cd03ddp-5 "
            "0x1.dc79db2f9b184p-5 -0x1.69d5fed977751p-6 0x1.003486140c5bfp-5 "
            "0x1.f2b3cce2cce05p-8 0x1.d70a85831e358p-6 -0x1.592b52b069a3ep-7 "
            "-0x1.63148f5f97a50p-9 -0x1.b56e43c7d722bp-6 -0x1.249f3dbbcf813p-8 "
            "0x1.88e56d4147c2bp-5 0x1.4355dbe79d39cp-5 -0x1.3a6a0aca5f5fap-5 "
            "-0x1.00d6b85f6c635p-4 -0x1.c12f18c2123e5p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.344a291f8ddd5p-4 -0x1.b0894294c079ap-6 -0x1.e6c3b9df0bd76p-7 "
            "0x1.0b68ec42f1c8bp-5 0x1.161e61c13be54p-4 0x1.3ae53ca835bf1p-6 "
            "0x1.a4bfeddb8d79fp-4 -0x1.1aeb09e5d6952p-3 0x1.207074d16a98cp-3 "
            "0x1.a5d8b378d0295p-8 0x1.21550c9696d16p-5 0x1.c3ee52868b70dp-4 "
            "0x1.40f745a53170ep-4 -0x1.c28979f8c4956p-6 -0x1.dd9bd55d64062p-6 "
            "0x1.9794958cc408dp-7 0x1.73cd11b0c8e1ep-5 0x1.dfadc5e2d16b5p-8 "
            "-0x1.273c678f1e7d5p-7 -0x1.cafa7c8dae0b1p-10 -0x1.834e06d0ce675p-5 "
            "0x1.c997856947fdap-6 0x1.1c9417a3decbep-5 -0x1.8e0d8211121f3p-5 "
            "-0x1.91246b6943a9dp-6 0x1.25502c7b98e4cp-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.ee65e6c97fd8bp-6 -0x1.8058351142533p-6 -0x1.3b8b01d85c3bep-5 "
            "0x1.14ed520ab5956p-4 -0x1.dea9a66e9ba8bp-10 0x1.c555eb1ae2a7dp-5 "
            "0x1.8eb338cd9f8cdp-4 -0x1.447dd917d6a3fp-4 0x1.bca961d553ca1p-4 "
            "0x1.3c52a2c47a6f9p-7 0x1.6e5eb4ff6f74ep-5 0x1.161b5082b5a97p-3 "
            "0x1.09bd1c6a06d71p-3 -0x1.6e180b42b97cbp-7 -0x1.8388e247c7289p-7 "
            "0x1.80bc86e11c440p-7 0x1.5ef5249f2e59dp-4 0x1.6dac678bcf611p-6 "
            "-0x1.6d8ed9f0d8737p-6 0x1.bd07cd1540c40p-7 -0x1.79c51628ccf5cp-5 "
            "0x1.0f142b7f11146p-3 -0x1.9a51613e2d97ap-9 -0x1.baf2b4dae3840p-4 "
            "-0x1.2ab854b4d6904p-4 0x1.f310affcec222p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.11c388b6d2cf3p-5 -0x1.b1f3f18bc83a6p-6 -0x1.1e2a0ebcd4430p-4 "
            "0x1.fd19c2da72a87p-5 0x1.08f741167de84p-5 0x1.6cd13f8fb12a4p-4 "
            "0x1.b56a86487567bp-4 -0x1.58e629d2ecd95p-6 0x1.be0042008cf7bp-4 "
            "0x1.f3b51b79e5151p-7 0x1.df3590d55bb6fp-7 0x1.19355d5a46efcp-3 "
            "0x1.9a9045144fb7ap-4 -0x1.bfeefac7983d3p-8 -0x1.49d8604a8f767p-6 "
            "-0x1.605fb3645f0ccp-10 0x1.7d139c536d621p-5 -0x1.886c901b64383p-7 "
            "0x1.7b946d01d2d33p-6 -0x1.4186f356f73bap-5 -0x1.965c3c5b8eec0p-6 "
            "0x1.bf2087e5c0480p-4 0x1.0203e5ac72af4p-5 -0x1.ac2446976cc60p-4 "
            "-0x1.4582f4199bf4dp-4 0x1.12b3ff1c2d6bcp-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.ae7e1fb590eb6p-7 -0x1.158bee75f98e4p-8 -0x1.5967823536d36p-5 "
            "0x1.34b8f2bb0fdadp-5 0x1.5c672aa7e9a40p-6 0x1.0341f8b151e7ap-5 "
            "0x1.ffe66791806eep-4 -0x1.400ea37eae6cfp-5 0x1.ae87065298a06p-4 "
            "-0x1.307ef35711169p-8 0x1.342de1fcb56b2p-5 0x1.e97cd3633e404p-4 "
            "0x1.a3da363c259ffp-4 0x1.fed82cda258b1p-10 -0x1.27e00db874493p-5 "
            "0x1.688ef8a4621cdp-8 0x1.a2508f9876aafp-6 0x1.41a810194e4bap-7 "
            "0x1.275ee1bb84f31p-5 -0x1.3fbfa1a658c60p-9 -0x1.12705962690ddp-5 "
            "0x1.8bf93691a8231p-4 0x1.1700a32354fc5p-5 -0x1.93531af8b4272p-5 "
            "-0x1.3f66aaace51a9p-5 0x1.ed85ef8f0697cp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.775158195a310p-6 -0x1.06737ada8a58cp-5 -0x1.9b3cb1fc8167dp-5 "
            "0x1.e2472cab4abbep-6 0x1.a7c9d1e9aeffcp-5 0x1.a82446620ab5ep-5 "
            "0x1.253644de4ec7dp-3 -0x1.36ce0f0a7d1d2p-4 0x1.586edd32a3457p-3 "
            "0x1.b0d6a73dd6c91p-8 0x1.3a66b9181cf99p-5 0x1.562f297ef331ap-4 "
            "0x1.f294f6a67a1b7p-5 0x1.bcf6e38c42023p-10 -0x1.289eb7a4d7257p-7 "
            "0x1.5a88e53368557p-7 0x1.6271dda039d57p-7 0x1.4e37666eae47ap-9 "
            "0x1.fd4c64fcec78bp-7 -0x1.e94b71b590ef3p-7 -0x1.ec70f31f74f17p-7 "
            "0x1.b8b14f1981a85p-5 0x1.70b8c375a462bp-5 -0x1.03d6dd8616a9ep-4 "
            "-0x1.1e9fe0b06c8dcp-5 0x1.884a9248a0ec2p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.4ba3175bfb4b4p-4 -0x1.e18fa5c761669p-5 -0x1.bc7638ed2d7c7p-4 "
            "0x1.ff1b8a2552fe9p-6 0x1.945652f696624p-7 0x1.30b21746e8af0p-4 "
            "0x1.15b4f43c238d9p-3 -0x1.2342dfd6c0ef2p-5 0x1.0b73d252de547p-3 "
            "0x1.8ff7f9ca81989p-12 0x1.6226399f8598fp-5 0x1.15798474acbe5p-3 "
            "0x1.4e82dabf3d806p-4 -0x1.3a7a6a51d5781p-6 -0x1.bc056b9eccad4p-6 "
            "-0x1.3a185eac9ffb5p-7 0x1.a83757053dce0p-8 0x1.b0bd1e2fb678dp-8 "
            "-0x1.08a94496a1dabp-7 -0x1.29a1020f7105ap-9 -0x1.8547ddf58fa6bp-5 "
            "0x1.3da0527b302d7p-4 0x1.29ba7849126cfp-5 -0x1.0ed22a9c9d295p-4 "
            "-0x1.2aea3201b121ap-5 0x1.63a3eaa83c41dp-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.2ba9f213cdfcfp-4 0x1.f921644338626p-8 -0x1.d0ad326681556p-5 "
            "0x1.ff05bc1291d14p-6 -0x1.5004029a65d10p-4 0x1.2c292a1ef3639p-4 "
            "0x1.103c3615e78d5p-3 -0x1.4903a32437cbfp-8 0x1.62621c2cadda8p-3 "
            "0x1.26e9fc988e298p-5 0x1.3fbf4be8d26adp-6 0x1.952f56d30b1c3p-4 "
            "0x1.80ba563af5edep-4 0x1.8892b3954b482p-5 -0x1.3f7134e2e0f6ap-5 "
            "0x1.1ed0383f08316p-5 0x1.551026fb9d9f7p-6 -0x1.0d7c7900bdf8fp-6 "
            "0x1.0a4f84fe6b18bp-6 0x1.68a7a99443db9p-6 -0x1.f84bfb8aab101p-7 "
            "0x1.a964598ae3aebp-5 -0x1.4efdad2e15364p-6 -0x1.75f4d18094099p-6 "
            "-0x1.5a661424aacd5p-6 0x1.fa4105281f793p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "asgd-l1-contiguous": {
        "outer_iters": 10,
        "coord_updates": 2000,
        "active_blocks": [6, 6, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.0e5ae92b681a0p-4 0x1.6a0feed8097c0p-4 "
            "0x1.7c2f9fc6e4d60p-4 0x1.1da28fcdbbe60p-5 0x1.204f4bff94018p-3 "
            "0x1.98f62ef5d2480p-6 0x1.2273bfbcdebc0p-4 0x1.2422d76e91a80p-3 "
            "0x1.6186af5cac500p-6 0x1.86bc589eb5920p-5"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1afde4f4e5eb8p-2 0x1.a4e15df83a404p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.609a3b460ef1cp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.8a556d119f533p-13 0x0.0p+0 "
            "-0x1.ab1941a8a71cdp-11 0x1.41b7f79657338p-2 0x1.6f1b7732047b4p-1 "
            "0x1.8db2f3626a8b8p-5 0x0.0p+0 0x1.b177efb219df3p-3 0x1.71ef0f26e3815p-5 "
            "-0x1.e7bb863f8e22dp-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.bab0b64812ea0p-10 0x0.0p+0 "
            "0x0.0p+0 0x1.f10a2ad7a1e4bp-3 0x1.ceae9c8751523p-2 0x1.730efeea9b013p-8 "
            "0x0.0p+0 0x1.a1b14caa202b0p-4 0x1.9d7e34dbe5fe6p-5 -0x1.16958ccf0bb01p-7 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.d01d3c87b1e53p-9 0x0.0p+0 "
            "-0x1.4828e30182a7dp-9 0x1.2e14bcb84f740p-2 0x1.5bd8c981901a5p-1 "
            "0x1.adda03fa4ec2ap-7 0x0.0p+0 0x1.59e3163e182b1p-2 0x1.3723d4f34547ep-5 "
            "-0x1.34f432c500dd0p-9 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.7a321be788e58p-8 0x0.0p+0 "
            "0x0.0p+0 0x1.00929a3d8a452p-1 0x1.ece8ca2bffc06p-2 0x1.144e7e196f856p-6 "
            "0x0.0p+0 0x1.0cd444a63be0bp-2 0x1.aaed42c2cf1c3p-4 "
            "-0x1.fc3d10402b13ap-10 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7e30a2d82d553p-2 0x1.612a760217da2p-1 0x1.71f9437796ac3p-9 0x0.0p+0 "
            "0x1.5e00a805ba3a7p-2 0x1.cc22090a83993p-6 -0x1.95571ca0387bdp-7 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.116e8a55ac1edp-8 0x0.0p+0 "
            "0x0.0p+0 0x1.1ae55bb4a4252p-2 0x1.2e387a9b466d7p-1 0x1.69f34837e5f1bp-7 "
            "0x0.0p+0 0x1.698fa5c05484bp-2 0x1.34923cbbe6267p-4 -0x1.2d995d3cdd8eap-6 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.5e3be091456e3p-9 0x0.0p+0 "
            "-0x1.886e4dbb796e6p-12 0x1.2ba10f0102067p-1 0x1.40b8a3830a494p-1 "
            "0x1.77300dc510132p-6 0x0.0p+0 0x1.a80a25665b65bp-3 0x1.4b5969a138fa3p-5 "
            "-0x1.2cd4599cf2fe3p-9 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e7613948dd756p-9 0x0.0p+0 "
            "-0x1.4f862cd92c2dap-11 0x1.1e5f55519962dp-2 0x1.54abe6d1c6b44p-1 "
            "0x1.0f5d995e3009dp-6 0x0.0p+0 0x1.08333f2bf76dap-2 0x1.949b5cd1f0732p-6 "
            "-0x1.5b1ece9ee3a66p-8 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.583a42bbbe362p-2 0x1.93912c7b9ea1bp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.f518e8c2454a1p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "asgd-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 1280,
        "active_blocks": [5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.68f38c8402d80p-7 0x1.a28c4c5c9c7c0p-7 "
            "0x1.892c61f650e00p-7 0x1.07949ffde0b40p-6 0x1.a34ddf8718e80p-7 "
            "0x1.86482d4338f40p-7 0x1.94663f316ff80p-6 0x1.657febec58500p-6 "
            "0x1.37dced4bfeb80p-6 0x1.33e39961663e0p-6"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.60c85bf2c2090p-3 0x1.095f663219705p-4 0x1.2b6105088bde4p-4 "
            "-0x1.7564c13b570fep-6 0x1.dd4124073b50fp-3 0x1.e8be181db5edcp-4 "
            "0x1.06c91412cd662p-3 -0x1.b89603e79aa04p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.276dcc2f65d32p-2 0x1.a7bc1daafc41ep-4 0x1.32f72d5959297p-4 "
            "0x1.7147a521f3dfep-5 0x1.9103b53964661p-3 0x1.352b7f45627a5p-3 "
            "0x1.7d5051a9e59d7p-3 -0x1.2c44c35378034p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.8b800cc2dad74p-2 0x1.88e4a0d60ba74p-4 0x1.3d28f61ecc3f9p-3 "
            "-0x1.7b0afde9293d5p-6 0x1.cce69337c124ep-3 0x1.055bdcf2fe119p-3 "
            "0x1.28c2473d6e1e0p-2 -0x1.219d267710135p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.755a99644eaa5p-2 0x1.dc344183ec8c9p-4 0x1.0d55d586c5a9fp-3 "
            "-0x1.002dc16b8f6aap-5 0x1.3ac38dbb458d4p-2 0x1.c9f23ec15ba55p-3 "
            "0x1.619ad44b0508cp-2 -0x1.106de5d27b897p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.ac526884a0a10p-2 0x1.0eb71f6ecd457p-3 0x1.18ac308a25190p-3 "
            "-0x1.348558634772cp-10 0x1.9af2d8ec7c1b2p-3 0x1.c1f388ece9290p-3 "
            "0x1.4e75236dd0870p-2 -0x1.966eb08233d65p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.514b6f8d11dd7p-2 0x1.375978d96bcdcp-5 0x1.aaf75dc379cd4p-3 "
            "-0x1.34d68f500ed31p-5 0x1.fa6a67aa3e5f9p-3 0x1.e38781131d52ap-5 "
            "0x1.fb0f68ba852f4p-3 -0x1.f5c1949b8989cp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.ece4764363637p-2 -0x1.0ef4ccb1dbb93p-6 0x1.a891c4c922c4dp-3 "
            "-0x1.83007572b153ap-5 0x1.50243a4fe5298p-3 0x1.65f25a1b09b01p-3 "
            "0x1.2511d33fdd31dp-3 -0x1.050aeedf894ddp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.c6041b94931fep-2 0x1.5163c6f78592dp-5 0x1.1d8132bda250ep-3 "
            "-0x1.9049ae15e2f9cp-3 0x1.ecbea2abefed0p-3 0x1.b44060ca9b1c6p-3 "
            "0x1.2d7129ba7a537p-2 -0x1.127ab77497c56p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.d0d0a9463d3a4p-3 0x1.9fec2a3df7ea9p-5 0x1.52ce8f934037cp-4 "
            "-0x1.2f925cde73273p-4 0x1.b6e05068d485cp-3 0x1.a24925f6216bdp-2 "
            "0x1.3ea012837b0f2p-2 -0x1.bdbc5f83f8fe5p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1c627f789b3f6p-2 -0x1.84fa6d7295821p-6 0x1.b1b9038064890p-5 "
            "-0x1.5c84a240fe4dbp-5 0x1.e4ba4af4f8fd8p-3 0x1.308863a52d20dp-2 "
            "0x1.4e115924824acp-2 -0x1.4736208155469p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },

    "mrbcd-l1-scattered": {
        "outer_iters": 10,
        "coord_updates": 1600,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.8d0228219e1d0p-4 0x1.a7382f5197880p-6 "
            "0x1.d05b666981080p-7 0x1.e103915676b00p-8 0x1.0c273a496ed00p-8 "
            "0x1.86149eed3da00p-9 0x1.a9c4fde641000p-10 0x1.109ff49882800p-10 "
            "0x1.46178dbf75800p-11 0x1.b4b01fb7a5000p-12"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.657261faa52b5p-3 0x1.7c531de8484d6p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.b48f28dc2fa15p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.36c763d33194ep-2 0x1.361d7d7056929p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6ef0166f15854p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7024e9df2838cp-2 0x1.5420592c106c1p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.695dac9abbe54p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.71ad3f8c0501cp-2 0x1.5fc74cfc09799p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.56c136c9d108ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6f9e06b1432c6p-2 0x1.66391f40cd447p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.538b2f60faabep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6d760c8acc618p-2 0x1.67d51b2d7da53p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.508340d67fc6cp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6bf1100d6a0c6p-2 0x1.6a603038abce9p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4e95ef2457d0ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6b263416ada9ep-2 0x1.6b2c4f525d11ep-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4c2911f10b7b4p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6a10ed70840e6p-2 0x1.6bdaaa2577d6dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4b984e3e4b734p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69b6b73b141e8p-2 0x1.6c12d26438975p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a72c3ee4caf8p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "mrbcd-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 1600,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.d2df049cbe740p-7 0x1.312d0e6669100p-8 "
            "0x1.330a0e3cea200p-10 0x1.99a6104722c00p-11 0x1.ae69a716bc800p-12 "
            "0x1.7e6c3c4ae8000p-13 0x1.9a552462c4000p-14 0x1.f82e8d8ce0000p-15 "
            "0x1.fba4d428d8000p-16 0x1.155d9f3350000p-16"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.3caaaa2c2d1f9p-3 0x1.33c3d63bf378fp-5 0x1.21ad207b9712dp-4 "
            "0x1.3145ef94a1c0ap-8 0x1.c00ac81e18d1ep-3 0x1.3653b46f6db71p-3 "
            "0x1.851b99a840908p-3 -0x1.28393ecb701d0p-3 -0x1.822b425621808p-12 "
            "-0x1.1512236a72d79p-7 -0x1.1078acedc0aecp-7 0x1.1ad189539400ep-10",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.e0a0dd9592569p-3 0x1.022232dedf0a2p-4 0x1.5af1e88e8c33fp-4 "
            "-0x1.7dc2f1148cf92p-7 0x1.b138ed17d5855p-3 0x1.6ac5e8c8a00aap-3 "
            "0x1.f5b49994d3e07p-3 -0x1.914dc9ac3e820p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.17d82debe90c5p-2 0x1.4e9edf6ae65e0p-4 0x1.a9dd5c19860aap-4 "
            "-0x1.57e73eec373e8p-6 0x1.b1c3eb81d1d85p-3 0x1.800053991fdf0p-3 "
            "0x1.f64c585edfa33p-3 -0x1.a3cc57d0b580ep-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1ff5af4d80e08p-2 0x1.57b0998018969p-4 0x1.ad3e99f81aff2p-4 "
            "-0x1.58b05cf1d6a61p-6 0x1.b0e939a3e8253p-3 0x1.842fe0a3ed072p-3 "
            "0x1.fb1ffbaaea3c4p-3 -0x1.a76d62ee3eae5p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.26326baa0ed62p-2 0x1.5eaca35281472p-4 0x1.b63bd497451eap-4 "
            "-0x1.66524c4e7bad3p-6 0x1.b091997050ac3p-3 0x1.855deb7a5120ap-3 "
            "0x1.fb447e5be1ff5p-3 -0x1.a82e7408fd475p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.29a62c7411c47p-2 0x1.615bcbdfcdf9cp-4 0x1.bbe414f13c718p-4 "
            "-0x1.6837c040ddb75p-6 0x1.afb3072a0a149p-3 0x1.853107ca13053p-3 "
            "0x1.fa94456bdc200p-3 -0x1.a78bbb6cdce2fp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2b3a71ebf1bffp-2 0x1.63f660e9a29a1p-4 0x1.bdc06ca5c5d63p-4 "
            "-0x1.68b35669e1617p-6 0x1.afd7699c30c80p-3 0x1.84f36ca5223d8p-3 "
            "0x1.faac5cd6ce867p-3 -0x1.a75b44f7c666fp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2bdc384bb0d61p-2 0x1.64e90a2c994c2p-4 0x1.bebe9e286af87p-4 "
            "-0x1.69a5ec00201c8p-6 0x1.afc9627d133acp-3 0x1.84e2b0ff7d45ep-3 "
            "0x1.fa973caee3039p-3 -0x1.a74f90348c1cep-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2c4c416da11aep-2 0x1.658a586d71808p-4 0x1.bfc82f40f4f25p-4 "
            "-0x1.6a90e4615b141p-6 0x1.afb5c071c4037p-3 0x1.84cf5d489b242p-3 "
            "0x1.fa741a894cf6ap-3 -0x1.a739c2d335406p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2c8cc33554c2ep-2 0x1.65b59aeffc84dp-4 0x1.bfff0d657a17bp-4 "
            "-0x1.6a89eb6b524a3p-6 0x1.afb1c6868f8fcp-3 0x1.84c84806a6873p-3 "
            "0x1.fa65953b41685p-3 -0x1.a733f0710d32dp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },
    "proxsvrg-full-batch": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.78f13d6863800p-8 0x1.19192d96a3800p-11 "
            "0x1.b4f1e8c8d8000p-15 0x1.549a230480000p-18 0x1.0991497c00000p-21 "
            "0x1.9e22702000000p-25 0x1.42e8640000000p-28 0x1.f78db00000000p-32 "
            "0x1.88a1000000000p-35 0x1.3224000000000p-38"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7260ab954ea84p-2 0x1.630271cbd85ecp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.53db187ad529ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69f8b3e444652p-2 0x1.6be7e0580ab5dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4ad50cdfc7896p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.690449bc662dcp-2 0x1.6cb63d4482c42p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49e22e23216b4p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68ec36052903ep-2 0x1.6cca507234fd4p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49caa40acfb9ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e9dc2149304p-2 0x1.6ccc454dbd3a3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c859c8d9dacp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e9a17131926p-2 0x1.6ccc761e8bca5p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c820ab81158p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99bb8bc00ep-2 0x1.6ccc7ae08a9e9p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81b1a950eep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b29ff8cep-2 0x1.6ccc7b5740bfbp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a8fb4b96p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1c1621ap-2 0x1.6ccc7b62d2b5ep-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a822ba58p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1abb058p-2 0x1.6ccc7b63f3659p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80d9ed0p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-group-scattered": {
        "outer_iters": 6,
        "coord_updates": 8160,
        "active_blocks": [4, 4, 4, 4, 4, 4, 4],
        "gaps": (
            "0x1.be416fa97ed80p-8 0x1.cc563a6c45000p-12 0x1.6ce679c040000p-17 "
            "0x1.7ba52d2c00000p-23 0x1.b56b150000000p-28 0x1.7fb2000000000p-37 "
            "0x1.d180000000000p-43"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.1773447218f5ap-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.14f78f6c090fap-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.f597493ab0eaap-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.98e972bb06d0dp-9 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.4f06fdf939d64p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.2c9549c9a642cp-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.47a15dce67a02p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.842f390b1a5e2p-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.36b69e771faf0p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.76af7add13e9ap-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.3af29abc43486p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0c98cb6860985p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.5705f3ca98ba0p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.7efe37e1db147p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.c62593f750dbep-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.d23aaf01b55adp-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.4842f090549e8p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.7e5f8a471ffc1p-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.470f52c0120cfp-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0b0607a8b188bp-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.5bdda0317995fp-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.897d960923864p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.d9bb0d7941fc4p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e70bdca929bdcp-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.4506f7042c1f8p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.818a8bbea303fp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.47362864efb3ep-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0dcb051507f22p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.599c86cabd6adp-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8b40391068db2p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da052b2f02e8dp-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e66a1d5465b76p-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.450bde9134865p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.820eb5c4d7d9dp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.477569ae8d4efp-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e4fc01f66897p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59ba95a7305c3p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8ba3dc534afdep-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da71ef585bb50p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6b6c8f759645p-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.45123500921c3p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8212763a36352p-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.4777f9d72133fp-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e521a93ad71bp-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59be1141c4992p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8ba629e0ab29dp-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da771773393dap-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6bd663c3ba3dp-6 "
            "0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-group-uneven": {
        "outer_iters": 6,
        "coord_updates": 8160,
        "active_blocks": [4, 4, 4, 4, 4, 4, 4],
        "gaps": (
            "0x1.483a73cfbcb80p-8 0x1.bc8b68026e800p-12 0x1.6c81733db0000p-16 "
            "0x1.a443557400000p-23 0x1.252dc20000000p-29 0x1.fca8000000000p-39 "
            "0x1.b800000000000p-48"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2086a69ea236ep-8 0x1.c01779103634bp-7 0x1.852278c39b8bep-5 "
            "0x1.f5ec0382f869dp-6 -0x1.250793809f362p-10 -0x1.16c156f779642p-7 "
            "0x1.59256da831c0ep-9 0x1.b2efd0f528c73p-7 0x1.3438da77879c0p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.77e46cfce0466p-8 0x1.1e734e8f7ee55p-6 0x1.f9286a67bf936p-5 "
            "0x1.47074c22f01ddp-5 -0x1.5fce8caf89c11p-10 -0x1.6daa3482b41dfp-7 "
            "0x1.9ab7f72981a5ap-9 0x1.0eb8054415acep-6 0x1.6badaabd87e58p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.8ea3e5b2b1063p-8 0x1.2eace61bed4e3p-6 0x1.0ba7bdebd5835p-4 "
            "0x1.5b9b598b298fep-5 -0x1.754a844fd9faap-10 -0x1.82cc0d11867b2p-7 "
            "0x1.a6a06328eb32ap-9 0x1.1bc538ffcd4c9p-6 0x1.7a011a2b7b395p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.91303aad13943p-8 0x1.3064eff622689p-6 0x1.0d0e2a3125e79p-4 "
            "0x1.5dca4fe4aa7ddp-5 -0x1.79577a8cf8208p-10 -0x1.8477009059f31p-7 "
            "0x1.abeb1be63ac86p-9 0x1.1d7cf057cd1e9p-6 0x1.7b80fcdc072e9p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.913148a43cfc3p-8 0x1.30a123cfeb844p-6 0x1.0d243dec2a40dp-4 "
            "0x1.5dda6f749783ap-5 -0x1.79eb877245965p-10 -0x1.843c036e3472ap-7 "
            "0x1.ac4a2d7583446p-9 0x1.1e03c0f9a7cdfp-6 0x1.7aeaa4f189473p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.9134635748424p-8 0x1.30a32410a6755p-6 0x1.0d25ba87f5961p-4 "
            "0x1.5ddccf4e8de58p-5 -0x1.79f18499cb229p-10 -0x1.843a4ee22a87cp-7 "
            "0x1.ac4d83322ca1dp-9 0x1.1e07061d2b7f6p-6 0x1.7ae57bbf01907p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-l1-scattered": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.43126f8cba180p-5 0x1.75378d351f480p-7 "
            "0x1.d9447a06c4c00p-9 0x1.115742a257000p-12 0x1.f509598270000p-15 "
            "0x1.21b7208240000p-16 0x1.1a268cd980000p-19 0x1.d899316400000p-22 "
            "0x1.58ca7d8000000p-26 0x1.e3a8cc0000000p-29"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.4e8567339a361p-2 0x1.1a8d4225ad006p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.449396079df55p-2 0x1.dd16e51ea79c0p-10 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.0891a423bb49ap-13 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.74dc966c187efp-2 0x1.584b702ba2d27p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.5b652acfac3cap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6e1aae8aa5036p-2 0x1.66c2fcb7d6e7ep-1 0x0.0p+0 0x0.0p+0 "
            "0x1.521417809c0e2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68ab4cf8be752p-2 0x1.6be4c401b6f1fp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.487fb39fe21f2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68f9f71101438p-2 0x1.6cae77feb378bp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49dd0e0995264p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68ee84ec8e0b8p-2 0x1.6ccd613f27f66p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49d075b7f11b6p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68ead5f51dc5ep-2 0x1.6ccbd35ea050bp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49ca58c3903f2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e9cc9fec58ep-2 0x1.6ccc781c589a1p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c85ace0c2aep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99f65647f8p-2 0x1.6ccc79973a7b5p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81d60693acp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99bcb98708p-2 0x1.6ccc7b2227fb1p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a0d065c4p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.55e34fb76b800p-9 0x1.8a354caa1e000p-13 "
            "0x1.2b751122bc000p-14 0x1.1778c7ab40000p-17 0x1.4ab348b700000p-20 "
            "0x1.1428e77400000p-23 0x1.22aaf02000000p-26 0x1.3e46400000000p-31 "
            "0x1.b098800000000p-33 0x1.8b49800000000p-35"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x1.3cabbbdc802cbp-13 0x1.14491835c4ea6p-14 0x1.ba21e67e78086p-12 "
            "0x1.635bf4fb6444cp-15 -0x1.43caeef696d44p-11 -0x1.41181c67faab4p-14 "
            "-0x1.8de730fdcbc3ep-13 0x1.796a1ab004242p-13 0x1.e34d874171a63p-3 "
            "0x1.0f3ccc32c699cp-4 0x1.8093f6d3dad36p-4 -0x1.74a061d593629p-7 "
            "0x1.771f7481ee4edp-3 0x1.499743a7e716dp-3 0x1.b3a481244ecd0p-3 "
            "-0x1.6f84864797f6ep-3 -0x1.5f30d630558d6p-13 -0x1.1e14b26ed158ap-11 "
            "-0x1.8678f1e86851ep-12 -0x1.bb85669c895e8p-16",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1d90d9310d18cp-2 0x1.52d7ad2144545p-4 0x1.b180e2cc8bb6ap-4 "
            "-0x1.51b281de5766ap-6 0x1.a5244928db033p-3 0x1.7636d99dd226ep-3 "
            "0x1.e7f0e9b111db2p-3 -0x1.9b87bd1b68355p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2bda537e387ffp-2 0x1.67ee820faf439p-4 0x1.bf361ad7be0e4p-4 "
            "-0x1.5f29f0ce2bf00p-6 0x1.b16aa05d40cd0p-3 0x1.84fe9c70a8c1fp-3 "
            "0x1.f924b8a6a89fep-3 -0x1.a79e4ae7ff8c3p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cd1abbc43683p-2 0x1.6645ca33f63c8p-4 0x1.c04ffe94cdb26p-4 "
            "-0x1.6aa6f330281b4p-6 0x1.afc52303740e6p-3 0x1.84d8ad77fb289p-3 "
            "0x1.fa6ae5b033391p-3 -0x1.a7268c75dca44p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2ccbd7cd1bc84p-2 0x1.660ca6eff309bp-4 0x1.c064d691aefbap-4 "
            "-0x1.6adf9af2c3dd0p-6 0x1.afa70c5936735p-3 0x1.84c28a0e362d5p-3 "
            "0x1.fa4fadc9960b4p-3 -0x1.a723f44857d7ep-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2ccab0926c5ebp-2 0x1.6607f8e578c5ap-4 0x1.c065b231345bfp-4 "
            "-0x1.6ad736690bcdfp-6 0x1.afa1fd84e3435p-3 0x1.84ba9ac6a02e4p-3 "
            "0x1.fa4da60409ccbp-3 -0x1.a720cb3138549p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cca5cf11deb0p-2 0x1.6607cf022d2c6p-4 0x1.c06471b08ed4ap-4 "
            "-0x1.6ad83454a0e01p-6 0x1.afa26157f46cap-3 0x1.84bb529785213p-3 "
            "0x1.fa4de92b13dbbp-3 -0x1.a721162e87afbp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cca4c38cc59dp-2 0x1.6607ae9ec1df3p-4 0x1.c06469b1ea357p-4 "
            "-0x1.6ad81a72a2f96p-6 0x1.afa2663d69dc0p-3 0x1.84bb5bc327ddep-3 "
            "0x1.fa4dfd54c1170p-3 -0x1.a72125a2ccaf3p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cca4cf3098b1p-2 0x1.6607af4422d94p-4 0x1.c06466a115591p-4 "
            "-0x1.6ad8175e27038p-6 0x1.afa26772ac644p-3 0x1.84bb5cec30537p-3 "
            "0x1.fa4dfaf386396p-3 -0x1.a72125db13e54p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cca4d245628bp-2 0x1.6607af95e7b11p-4 0x1.c06466ea2c643p-4 "
            "-0x1.6ad818907ce66p-6 0x1.afa2676425324p-3 0x1.84bb5cdb9e417p-3 "
            "0x1.fa4dfaffafd01p-3 -0x1.a72126012397fp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },
}


REFERENCE_GOLDEN = {
    "reference-group-scattered": {
        "outer_iters": 7,
        "gap": "0x1.1000000000000p-45",
        "x_final": (
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.45128b7535e59p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8212c30a0ef0fp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.47783c115bab5p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e526495b5da9p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59bea4eade4c0p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8ba68325e14b9p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da77920ee116cp-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6bdbfbc95f19p-6 "
            "0x0.0p+0 0x0.0p+0"
        ),
    },
    "reference-l1": {
        "outer_iters": 29,
        "gap": "0x1.0000000000000p-51",
        "x_final": (
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a9588cp-2 0x1.6ccc7b6412927p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b5749p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0"
        ),
    },
}


def _long_rows(seed):
    """Dense rows of 1500 entries: a batch of 10 gathers 15,000 entries a step."""
    return make_instance(seed=seed, n=40, d=1500, q=15, sparsity=1.0, support=5,
                         ratio=0.6)


# Epochs longer than one chunk of the engine's epoch plan, with m_k no multiple
# of the chunk and changing as screening drops blocks; a batch of one row; a
# full batch, where only blocks are drawn; and rows long enough that the entry
# cap, not m_k, sets the chunk. name -> (spec builder, SolverConfig fields)
CHUNK_CASES = {
    "adsgd-long-epoch": (lambda: _lasso(6), dict(solver="adsgd", m=700, max_outer=6)),
    "asgd-long-epoch": (lambda: _lasso(6), dict(solver="asgd", m=700, max_outer=6)),
    "proxsvrg-logistic-long-epoch": (lambda: _logistic(6),
                                     dict(solver="proxsvrg", m=700, max_outer=4)),
    "mrbcd-batch-1": (lambda: _lasso(6),
                      dict(solver="mrbcd", batch_size=1, m=3000, max_outer=3)),
    "adsgd-full-batch-long-epoch": (lambda: _lasso(6),
                                    dict(solver="adsgd", batch_size=30, m=700,
                                         max_outer=6)),
    "adsgd-long-rows": (lambda: _long_rows(2), dict(solver="adsgd", m=60, max_outer=4)),
    "proxsvrg-long-rows": (lambda: _long_rows(2),
                           dict(solver="proxsvrg", m=60, max_outer=3)),
}


def run_chunk_case(name):
    build, fields = CHUNK_CASES[name]
    spec = build()
    with _storage(math.inf):
        return G.solve(spec, G.SolverConfig(seed=7, gap_tol=1e-12, eta=tuned_eta(spec),
                                            **fields))


def _nonzeros_hex(x):
    return " ".join(f"{i}:{x[i].hex()}" for i in np.flatnonzero(x).tolist())


CHUNK_GOLDEN = {
    "adsgd-full-batch-long-epoch": {
        "outer_iters": 2,
        "coord_updates": 2352,
        "active_blocks": [6, 6, 3],
        "gaps": "0x1.4a58be7a76ff8p-2 0x1.844834d6a0000p-13 0x1.0000000000000p-51",
        "x_final": (
            "7:0x1.68e99b1a9588cp-2 8:0x1.6ccc7b6412927p-1 11:0x1.49c81a80b5749p-2"
        ),
    },

    "adsgd-long-epoch": {
        "outer_iters": 6,
        "coord_updates": 6967,
        "active_blocks": [6, 6, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.802737836ffa0p-5 0x1.178abe5e63200p-9 "
            "0x1.0b24142ff4000p-14 0x1.e210900000000p-32 0x1.6470000000000p-38 "
            "0x1.0000000000000p-51"
        ),
        "x_final": (
            "7:0x1.68e99b1a9588cp-2 8:0x1.6ccc7b6412927p-1 11:0x1.49c81a80b5749p-2"
        ),
    },

    "adsgd-long-rows": {
        "outer_iters": 4,
        "coord_updates": 8400,
        "active_blocks": [15, 15, 15, 15, 15],
        "gaps": (
            "0x1.84db2ad70c69cp-1 0x1.79f363ada4330p-1 0x1.676cf5ef1e2c8p-1 "
            "0x1.46a3be4105790p-1 0x1.39d16225392c0p-1"
        ),
        "x_final": (
            "248:-0x1.6075c341cec72p-6 286:-0x1.615852ba2741ap-8 "
            "704:0x1.0c47cd44a88aep-8 708:-0x1.5d913d917acf0p-7 "
            "757:-0x1.2f0224fd5da1fp-4 770:-0x1.a9930d1836800p-14 "
            "872:-0x1.4bc48cfbee7b4p-10 888:-0x1.03803e4587904p-6 "
            "993:-0x1.c285bc18efd50p-6 1238:-0x1.6a6a4c5d6cc58p-10 "
            "1281:-0x1.bb35c2ca0e5a0p-11 1387:-0x1.de540ef43e9f8p-7 "
            "1392:-0x1.556fc86aa8c8ap-7"
        ),
    },

    "asgd-long-epoch": {
        "outer_iters": 6,
        "coord_updates": 21000,
        "active_blocks": [6, 6, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.fe66a31424c60p-5 0x1.78213f68adb20p-5 "
            "0x1.614be424ddc80p-5 0x1.97b5cdeb12b60p-4 0x1.d4e19162eaca0p-5 "
            "0x1.549becddd9e10p-4"
        ),
        "x_final": (
            "4:0x1.a071b35833f55p-9 6:-0x1.059991fd0b917p-11 7:0x1.b071b60e30fb5p-2 "
            "8:0x1.213965038fd26p-1 9:0x1.5af7f72c251bdp-7 11:0x1.50ce0e3d06c9bp-2 "
            "12:0x1.021edd7828d7bp-4 13:-0x1.a302fb1021440p-7"
        ),
    },

    "mrbcd-batch-1": {
        "outer_iters": 3,
        "coord_updates": 30036,
        "active_blocks": [6, 6, 6, 6],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.94156ba99e5ccp-2 0x1.98270b01c78a0p-5 "
            "0x1.0ad3320f35400p-10"
        ),
        "x_final": (
            "0:0x1.de2a30fe081f8p-17 1:0x1.07e86d4d07633p-18 2:0x1.83bba11d29a07p-23 "
            "3:-0x1.fcec08f30d87ep-22 7:0x1.6aaa34563c6bcp-2 8:0x1.6b87adb7d4a30p-1 "
            "9:0x1.700d9a7d4ce91p-20 10:-0x1.3d1fa4740d648p-19 "
            "11:0x1.4ddc6a29e154dp-2 12:0x1.092fb98e9bf9ap-18 "
            "13:0x1.460adad7d79b8p-17 14:-0x1.731dd1192f60fp-21 "
            "15:-0x1.fb9267d1fdfd8p-17 16:-0x1.2cdf41fb94503p-18 "
            "17:-0x1.dc719c292579bp-23 18:0x1.4f95dee4e6e19p-23 "
            "19:-0x1.106cc1162d1dbp-19"
        ),
    },
    "proxsvrg-logistic-long-epoch": {
        "outer_iters": 4,
        "coord_updates": 56000,
        "active_blocks": [5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.0514464377300p-9 0x1.9ea2f12af0000p-16 "
            "0x1.1588c15e00000p-22 0x1.55bc953000000p-25"
        ),
        "x_final": (
            "8:0x1.2cca3efb4e52ap-2 9:0x1.66079fac76231p-4 10:0x1.c0642910d71d4p-4 "
            "11:-0x1.6ad811594b8d3p-6 12:0x1.afa28c8a91a2fp-3 13:0x1.84bb7b70ea1ecp-3 "
            "14:0x1.fa4e1824664a7p-3 15:-0x1.a721445ef836bp-3"
        ),
    },
    "proxsvrg-long-rows": {
        "outer_iters": 3,
        "coord_updates": 270000,
        "active_blocks": [15, 15, 15, 15],
        "gaps": (
            "0x1.84db2ad70c69cp-1 0x1.a803e2558e690p-2 0x1.06e1cce545870p-2 "
            "0x1.48df40ef7c360p-3"
        ),
        "x_final": (
            "248:-0x1.c886abdbf34ccp-4 757:-0x1.a62db90f1eae9p-2 "
            "888:-0x1.fffd513c69df4p-5 993:-0x1.cee57c1d05079p-4 "
            "1238:-0x1.e1dfa512622a2p-5 1281:-0x1.500e6eb0a901bp-6"
        ),
    },
}


# The dense storage: name -> (spec builder, SolverConfig fields), run at
# seed 7, m = 40, max_outer = 10 and gap_tol = 1e-12 unless the fields say
# otherwise. adsgd-long-epoch plans several chunks per epoch.
DENSE_CASES = {
    "dense-adsgd-l1-contiguous": (lambda: _lasso(6), dict(solver="adsgd")),
    "dense-adsgd-full-batch": (lambda: _lasso(6), dict(solver="adsgd", batch_size=30)),
    "dense-adsgd-mu-p": (lambda: _lasso(7, mu_p=0.05), dict(solver="adsgd")),
    "dense-adsgd-long-epoch": (lambda: _lasso(6), dict(solver="adsgd", m=700,
                                                       max_outer=6)),
    "dense-mrbcd-l1-scattered": (lambda: _scattered(_lasso(6), 5), dict(solver="mrbcd")),
    "dense-asgd-group-scattered": (lambda: _scattered(_logistic_uneven(3), 4),
                                   dict(solver="asgd")),
    "dense-asgd-full-batch-mu-p": (lambda: _lasso(7, mu_p=0.05),
                                   dict(solver="asgd", batch_size=30)),
    "dense-proxsvrg-logistic-group": (lambda: _logistic(6), dict(solver="proxsvrg")),
    "dense-proxsvrg-full-batch": (lambda: _lasso(6), dict(solver="proxsvrg",
                                                          batch_size=30)),
}


def run_dense_case(name):
    build, fields = DENSE_CASES[name]
    spec = build()
    cfg = G.SolverConfig(**{**dict(seed=7, m=40, max_outer=10, gap_tol=1e-12,
                                   eta=tuned_eta(spec)), **fields})
    with _storage(0.0):
        return G.solve(spec, cfg)


DENSE_GOLDEN = {
    "dense-adsgd-l1-contiguous": {
        "outer_iters": 10,
        "coord_updates": 657,
        "active_blocks": [6, 6, 4, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.27e9fafe0a750p-3 0x1.e2c8f96012200p-5 "
            "0x1.c3945cc253800p-9 0x1.c323d101e0000p-11 0x1.ab131c0c1a000p-12 "
            "0x1.9a06e73210000p-13 0x1.11b820dff0000p-14 0x1.dc3dcef520000p-16 "
            "0x1.04a05102c0000p-16 0x1.c813fab100000p-18"
        ),
        "x_final": (
            "7:0x1.6cceb934d64acp-2 8:0x1.6a4210695e9e7p-1 11:0x1.4caf129d62c46p-2"
        ),
    },
    "dense-adsgd-full-batch": {
        "outer_iters": 10,
        "coord_updates": 662,
        "active_blocks": [6, 6, 5, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.1183061c85c38p-3 0x1.1d8d8acd815f0p-4 "
            "0x1.750eecf7e0000p-8 0x1.cb124ae0f9000p-9 0x1.87cb9aab28000p-10 "
            "0x1.8ebcbe809a000p-11 0x1.1df48822f8000p-12 0x1.0336dbbc1c000p-13 "
            "0x1.cffc7b4c70000p-15 0x1.ea42f50450000p-16"
        ),
        "x_final": (
            "7:0x1.6f829d6eef36ep-2 8:0x1.66e93779e1247p-1 11:0x1.4f53eb9105332p-2"
        ),
    },
    "dense-adsgd-mu-p": {
        "outer_iters": 10,
        "coord_updates": 489,
        "active_blocks": [6, 6, 6, 3, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.dd2f48fa7de30p-3 0x1.5c8f81037d380p-4 "
            "0x1.3ee0417fc4d80p-5 0x1.842029c808000p-12 0x1.41ad3ff368000p-13 "
            "0x1.def62a2ae0000p-15 0x1.a80fa13100000p-17 0x1.1c03845000000p-18 "
            "0x1.84a0066a00000p-20 0x1.0f41d22c00000p-21"
        ),
        "x_final": "1:0x1.5285cfae1b516p-1 8:0x1.b9a29bc58f153p-2",
    },
    "dense-adsgd-long-epoch": {
        "outer_iters": 6,
        "coord_updates": 6967,
        "active_blocks": [6, 6, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.802737836ffa0p-5 0x1.178abe5e63400p-9 "
            "0x1.0b24142ff4000p-14 0x1.e210800000000p-32 0x1.6470000000000p-38 "
            "0x1.0000000000000p-51"
        ),
        "x_final": (
            "7:0x1.68e99b1a9588cp-2 8:0x1.6ccc7b6412927p-1 11:0x1.49c81a80b5749p-2"
        ),
    },
    "dense-mrbcd-l1-scattered": {
        "outer_iters": 10,
        "coord_updates": 1600,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.8d0228219e1e0p-4 0x1.a7382f51978c0p-6 "
            "0x1.d05b666981080p-7 0x1.e103915676b00p-8 0x1.0c273a496eb00p-8 "
            "0x1.86149eed3da00p-9 0x1.a9c4fde641000p-10 0x1.109ff49882800p-10 "
            "0x1.46178dbf75800p-11 0x1.b4b01fb7a5000p-12"
        ),
        "x_final": (
            "7:0x1.69b6b73b141e8p-2 8:0x1.6c12d26438975p-1 11:0x1.4a72c3ee4caf8p-2"
        ),
    },
    "dense-asgd-group-scattered": {
        "outer_iters": 10,
        "coord_updates": 3400,
        "active_blocks": [4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.be416fa97ed80p-8 0x1.746e5e0c78400p-7 0x1.6e6f4a2b61460p-6 "
            "0x1.1153fcf3ed600p-7 0x1.6deddd0f3f840p-6 0x1.64175fdd2dec0p-6 "
            "0x1.b0354da3c2600p-6 0x1.75945d18250a0p-6 0x1.cd9042322f920p-6 "
            "0x1.7f218a952eae0p-6 0x1.063a73d458b00p-7"
        ),
        "x_final": (
            "0:-0x1.094eac2b70930p-6 3:0x1.514ab6bce3d92p-6 4:0x1.adc6bc6e0e97dp-6 "
            "7:-0x1.51914fd1d2ebfp-6 8:0x1.0fc6a20ec5365p-3 11:0x1.123eb03b506fbp-4 "
            "12:0x1.2675d00a0ef42p-3 15:0x1.497a9e7c10b5bp-7 16:0x1.b35e84277748ap-9 "
            "19:0x1.98ae5be939d4cp-9 20:-0x1.c7a175a9ecbddp-11 "
            "23:-0x1.b9668fff8775dp-6 24:-0x1.3325117c583d0p-4 "
            "27:-0x1.ae11046e8b782p-8 28:0x1.a08ac38db2030p-6 31:0x1.0ca566e9e709ep-5 "
            "32:-0x1.626d55adce14ep-4"
        ),
    },
    "dense-asgd-full-batch-mu-p": {
        "outer_iters": 10,
        "coord_updates": 980,
        "active_blocks": [6, 6, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.7379b064ca800p-6 0x1.4b43024834000p-13 "
            "0x1.0f9bd33f80000p-18 0x1.aabd118400000p-21 0x1.23f6358000000p-25 "
            "0x1.7e4c140000000p-29 0x1.62f3400000000p-32 0x1.68ea000000000p-35 "
            "0x1.75a0000000000p-38 0x0.0p+0"
        ),
        "x_final": "1:0x1.52f61cafda4cfp-1 8:0x1.b87c52e03aea5p-2",
    },
    "dense-proxsvrg-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.55e34fb76b800p-9 0x1.8a354caa1d000p-13 "
            "0x1.2b751122bc000p-14 0x1.1778c7ab40000p-17 0x1.4ab348b700000p-20 "
            "0x1.1428e77400000p-23 0x1.22aaf00000000p-26 0x1.3e46440000000p-31 "
            "0x1.b098700000000p-33 0x1.8b49800000000p-35"
        ),
        "x_final": (
            "8:0x1.2cca4d245628ep-2 9:0x1.6607af95e7b12p-4 10:0x1.c06466ea2c647p-4 "
            "11:-0x1.6ad818907ce65p-6 12:0x1.afa2676425324p-3 13:0x1.84bb5cdb9e415p-3 "
            "14:0x1.fa4dfaffafd01p-3 15:-0x1.a72126012397ap-3"
        ),
    },
    "dense-proxsvrg-full-batch": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.78f13d6863900p-8 0x1.19192d96a3800p-11 "
            "0x1.b4f1e8c8e0000p-15 0x1.549a230440000p-18 0x1.0991497e00000p-21 "
            "0x1.9e22702000000p-25 0x1.42e8620000000p-28 0x1.f78d900000000p-32 "
            "0x1.88a1000000000p-35 0x1.3224000000000p-38"
        ),
        "x_final": (
            "7:0x1.68e99b1abb056p-2 8:0x1.6ccc7b63f365ap-1 11:0x1.49c81a80d9ecep-2"
        ),
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_iterates_match_golden(name):
    rep = run_case(name)
    want = GOLDEN[name]
    assert rep.outer_iters == want["outer_iters"]
    assert rep.coord_updates == want["coord_updates"]
    assert [len(a) for a in rep.active_history] == want["active_blocks"]
    assert np.array_equal([r.gap for r in rep.trace], _floats(want["gaps"]))
    assert len(rep.iterates) == len(want["iterates"])
    for got, hexes in zip(rep.iterates, want["iterates"]):
        assert np.array_equal(got, _floats(hexes))
    assert np.array_equal(rep.x_final, _floats(want["iterates"][-1]))


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_reference_matches_golden(name):
    rep = G.reference_solve(REFERENCE_CASES[name]())
    want = REFERENCE_GOLDEN[name]
    assert rep.outer_iters == want["outer_iters"]
    assert rep.gap.hex() == want["gap"]
    assert [v.hex() for v in rep.x_final.tolist()] == want["x_final"].split()


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_chunked_epochs_match_golden(name):
    rep = run_chunk_case(name)
    want = CHUNK_GOLDEN[name]
    assert rep.outer_iters == want["outer_iters"]
    assert rep.coord_updates == want["coord_updates"]
    assert [len(a) for a in rep.active_history] == want["active_blocks"]
    assert [r.gap.hex() for r in rep.trace] == want["gaps"].split()
    assert _nonzeros_hex(rep.x_final) == want["x_final"]


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_dense_storage_matches_golden(name):
    rep = run_dense_case(name)
    want = DENSE_GOLDEN[name]
    assert rep.outer_iters == want["outer_iters"]
    assert rep.coord_updates == want["coord_updates"]
    assert [len(a) for a in rep.active_history] == want["active_blocks"]
    assert [r.gap.hex() for r in rep.trace] == want["gaps"].split()
    assert _nonzeros_hex(rep.x_final) == want["x_final"]


def _hexes(x):
    return " ".join(map(float.hex, x.tolist()))


def _entry(name):
    """A fresh run of one case, as its GOLDEN, CHUNK_GOLDEN, DENSE_GOLDEN or
    REFERENCE_GOLDEN entry."""
    if name in REFERENCE_CASES:
        rep = G.reference_solve(REFERENCE_CASES[name]())
        return {"outer_iters": rep.outer_iters, "gap": rep.gap.hex(),
                "x_final": _hexes(rep.x_final)}
    rep = (run_case(name) if name in CASES else run_dense_case(name)
           if name in DENSE_CASES else run_chunk_case(name))
    last = ({"iterates": list(map(_hexes, rep.iterates))} if name in CASES
            else {"x_final": _nonzeros_hex(rep.x_final)})
    return {"outer_iters": rep.outer_iters, "coord_updates": rep.coord_updates,
            "active_blocks": [len(a) for a in rep.active_history],
            "gaps": " ".join(r.gap.hex() for r in rep.trace), **last}


if __name__ == "__main__":  # python tests/test_golden_iterates.py NAME...
    import sys
    import textwrap

    def _text(text):  # a string literal over lines of at most 72 characters of text
        parts = textwrap.wrap(text, 72, break_on_hyphens=False)
        return "\n".join(f'            "{p}{" " * (i + 1 < len(parts))}"'
                         for i, p in enumerate(parts))

    for case in sys.argv[1:]:
        print(f'    "{case}": {{')
        for key, val in _entry(case).items():
            if isinstance(val, list) and isinstance(val[0], str):
                val = "[\n" + ",\n".join(map(_text, val)) + ",\n        ]"
            elif isinstance(val, str):
                short = len(key) + len(val) < 73
                val = f'"{val}"' if short else f"(\n{_text(val)}\n        )"
            print(f'        "{key}": {val},')
        print("    },")
