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

python tests/test_golden_iterates.py NAME... prints each named case's entry
from a fresh run, in the layout below, for such a re-record.
"""

import dataclasses

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


def run_case(name):
    build, fields = CASES[name]
    spec = build()
    cfg = G.SolverConfig(seed=7, m=40, max_outer=10, gap_tol=1e-12,
                         eta=tuned_eta(spec), keep_iterates=True, **fields)
    return G.solve(spec, cfg)


def _floats(hexes):
    return np.array([float.fromhex(h) for h in hexes.split()])


GOLDEN = {
    "adsgd-full-batch": {
        "outer_iters": 10,
        "coord_updates": 662,
        "active_blocks": [6, 6, 5, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.58431d1928f88p-3 0x1.9038de3883fe0p-4 "
            "0x1.43d310a975af0p-4 0x1.072c8cf678b90p-4 0x1.ba5b21afdac40p-5 "
            "0x1.76260d420a060p-5 0x1.0a608e780ad60p-5 0x1.a222232d46c80p-6 "
            "0x1.4e43f63907cc0p-6 0x1.2f90e8ed03d00p-6"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.73eec318b7eddp-3 0x1.b8d3502ff57adp-3 0x0.0p+0 0x0.0p+0 "
            "0x1.fe5b16d51a29ap-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1907d0dcd65d4p-2 0x1.75b5c997bdb69p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.ac74593076fdap-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.417ef72c7282ap-2 0x1.b0d54368d1fb2p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.3323ce0d949a6p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.5bea2e78732edp-2 0x1.e99d7bfbe861ap-2 0x0.0p+0 0x0.0p+0 "
            "0x1.5a78e4b9e1196p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.70cd4465b1063p-2 0x1.0a90b75fb1525p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6cde74e183a53p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7cffabeaff791p-2 0x1.1bba3be32f643p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.7320adcb727e0p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7f8c5cee1188dp-2 0x1.33d960de47821p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.71b051340a192p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.805fe6f8454b3p-2 0x1.40c79aec8b990p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6daff3b479965p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7ff3f16637c8ep-2 0x1.4a2658a1498f1p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.693a62c3cc464p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.7e07968b1c4ddp-2 0x1.4ca2cb2380444p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6426ba97bb426p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-full-batch-scattered": {
        "outer_iters": 10,
        "coord_updates": 960,
        "active_blocks": [5, 5, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.397f4b92b2490p-3 0x1.42eadf2c6d5a0p-4 "
            "0x1.fc146995345c0p-6 0x1.8db37905d7b00p-7 0x1.44923d3ca7f80p-7 "
            "0x1.435d437fd6a00p-8 0x1.9419d34d0ae00p-9 0x1.2c80de92b3200p-9 "
            "0x1.7ebbeb6f6c000p-10 0x1.68e78030bb000p-10"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.41aa07608ce89p-3 0x1.efea0bb15ad13p-3 0x0.0p+0 0x0.0p+0 "
            "0x1.8c36b67868b8dp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.cab4c88ed72c0p-3 0x1.ac5f239c2f058p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.2bc9aff7366a0p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1b07aa8b6d00bp-2 0x1.22d7eb45ba863p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.3b0e0a91eac96p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2d7c97223e195p-2 0x1.4974915fffd17p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.482c4d95fd1b1p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.3ee169d115f19p-2 0x1.5a68a66a49a97p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4d6440a719226p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.52f415927462fp-2 0x1.6180e63d35548p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4eaeb10c70db9p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.5eb5197e329d0p-2 0x1.647aa0891ecbfp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4f0d346a98c19p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.640adf1926934p-2 0x1.673eceb28abf3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4eb8e6382569fp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.65346d356b417p-2 0x1.69488e873a675p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4dde8eca98e95p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6738981e7fdd4p-2 0x1.69b8839b559a9p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4d00c4d914b13p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-l1-contiguous": {
        "outer_iters": 10,
        "coord_updates": 657,
        "active_blocks": [6, 6, 6, 4, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.d65aa6fe5e640p-3 0x1.06755ca295148p-3 "
            "0x1.7097e03ae0650p-4 0x1.8e07317674720p-5 0x1.0331cc215bb20p-5 "
            "0x1.2705a285598c0p-6 0x1.03dd2ecde5ac0p-6 0x1.6b50120f78800p-7 "
            "0x1.4a204ca2d2c00p-7 0x1.078ae131fda80p-7"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1465861b6c325p-6 0x1.e06557a2a5330p-4 0x0.0p+0 0x0.0p+0 "
            "0x1.3bab6a4daac00p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.63da70f543d2dp-3 0x1.347515840cbdcp-2 0x0.0p+0 0x0.0p+0 "
            "0x1.50b2908702aa2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.3452c522ad8a2p-2 0x1.98f28e41b791dp-2 0x0.0p+0 0x0.0p+0 "
            "0x1.620c1905d20a6p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.5331bc35d4a6dp-2 0x1.0fc9b1e0b6e49p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6c25447278739p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.5dd1b61d14d05p-2 0x1.2f77402b53228p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6eb3a7d1f21e6p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.64f62fba54117p-2 0x1.4b2fb1926f6b2p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.6e9b21e869db0p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69b63a3b95461p-2 0x1.4ebb64e1338ffp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.663a0173d1c75p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6ae0a74edc859p-2 0x1.584c55c281622p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.61f88d98f4572p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6d891d35992c3p-2 0x1.59fb536f8219dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.5cb3ba42c7332p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6e45e5fb52d9ap-2 0x1.5e0685dbce681p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.597d71de1d7f1p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-l1-scattered": {
        "outer_iters": 10,
        "coord_updates": 960,
        "active_blocks": [5, 5, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.4e017b9553e80p-4 0x1.22f8b83b49ba0p-5 "
            "0x1.84be783318440p-6 0x1.1113ee13a8c80p-6 0x1.bf5c0bc89d600p-7 "
            "0x1.7720493305400p-8 0x1.169aed50bcf00p-8 0x1.602cfe61d6600p-9 "
            "0x1.dd5f9a0ffa000p-10 0x1.71332a38b2000p-10"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.87cb98eee1861p-4 0x1.d8e1993f58819p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.1fd0e609b91b6p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.b8c3c3ee427ecp-3 0x1.1885110b31eb9p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.337a14645e2abp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.16923dd830df1p-2 0x1.2ad7c4e6048dfp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.f123574344729p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.41356015e09a8p-2 0x1.3d7988e77c33bp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.1f1516f31c495p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6b89f74f61691p-2 0x1.4a80adfa08759p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.288185d26b480p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6cdf0a221ee34p-2 0x1.5d12fb055b7bdp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.346a67b52416dp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6f1790aacde57p-2 0x1.620c3236ee5ddp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.3d32d7436a339p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6e2ea0590ee81p-2 0x1.668608382ccd0p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.440c1be07120bp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6db1c6028d71fp-2 0x1.68bdc3c543f93p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.45c2cf8cb00b4p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6cb2152de4940p-2 0x1.69ddab7ba9b07p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.47df5150c1b3bp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 640,
        "active_blocks": [5, 5, 5, 4, 3, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.f399cf96cb580p-6 0x1.d2168474361c0p-7 "
            "0x1.1a0ff1c8aee00p-7 0x1.27dab5e116f00p-9 0x1.edfad49728400p-10 "
            "0x1.50bf68c246200p-10 0x1.679250d90c000p-11 0x1.ba76fae133800p-12 "
            "0x1.32b9fb172e000p-12 0x1.a950358bea000p-13"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.8256c1f23582bp-5 0x1.bce5b2a215b96p-7 0x1.c0139eccebaadp-7 "
            "-0x1.b2e2bfcbacd17p-10 0x1.aa63fe96dd899p-4 0x1.92549e7cbf471p-4 "
            "0x1.15148b570d1e8p-3 -0x1.d30ba2309f978p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1926149b2fc00p-3 0x1.3cfdb6c857d4bp-5 0x1.9e582dbf45d21p-5 "
            "-0x1.027b827918c2cp-7 0x1.50003d13bab96p-3 0x1.0e3f94a08872cp-3 "
            "0x1.7137d8529b346p-3 -0x1.34680e68080e4p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.797055048a7c5p-3 0x1.b0992350078cbp-5 0x1.08eb7e73b4033p-4 "
            "-0x1.a99dce4e64271p-7 0x1.8811e104a909fp-3 0x1.45787d0399abfp-3 "
            "0x1.afa30bbfc18b7p-3 -0x1.62e03f916989fp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.ec4d16844bc50p-3 0x1.1b9703d5f9ffcp-4 0x1.617d446466ab4p-4 "
            "-0x1.2638b71252604p-6 0x1.9350d19f58537p-3 0x1.5484acf65f942p-3 "
            "0x1.c263e5ebd3f3ap-3 -0x1.72069e4ffecb6p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.0435c88f78e6bp-2 0x1.2da38ed800987p-4 0x1.79d2a89707504p-4 "
            "-0x1.304f6d59b4c25p-6 0x1.a31250f8905b0p-3 0x1.6758dde867ef9p-3 "
            "0x1.df564c5a8cc4ap-3 -0x1.8ce37517a8210p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.11147feaabdb5p-2 0x1.41d2827c0f99cp-4 0x1.8c4a6dce99a2bp-4 "
            "-0x1.42df85173405ap-6 0x1.aa26c7a215d32p-3 0x1.74913a40f01b8p-3 "
            "0x1.ebde667c0b8f3p-3 -0x1.9855fd99ccb2ap-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1b60964e91f1ep-2 0x1.4e667d7487ac4p-4 0x1.a1916d7f0ca50p-4 "
            "-0x1.525bb3fe461f5p-6 0x1.ab7e254597440p-3 0x1.7a655dba1c604p-3 "
            "0x1.f0840ed576478p-3 -0x1.9dc92f3c534eap-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.218bc5be109c3p-2 0x1.56acb4c2ea715p-4 0x1.acea04e65f731p-4 "
            "-0x1.5b0460a75afd4p-6 0x1.ad293a2225915p-3 0x1.7e21d47b22394p-3 "
            "0x1.f49201bedad89p-3 -0x1.a158f7e175a86p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.250c9d7891463p-2 0x1.5bc476ff009bfp-4 0x1.b2b10c4c67ffdp-4 "
            "-0x1.60ec975dad450p-6 0x1.ade84fab2e391p-3 0x1.80d57bcfcc2b7p-3 "
            "0x1.f6d99771c9df4p-3 -0x1.a3b6d5d2bafc6p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2794f97a8e213p-2 0x1.5f284d99eecc6p-4 0x1.b74865c330886p-4 "
            "-0x1.627ea9262e06cp-6 0x1.ae84dc0625087p-3 0x1.82623d7364902p-3 "
            "0x1.f875306d4d6e4p-3 -0x1.a511abe11a452p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },

    "adsgd-mu-p": {
        "outer_iters": 10,
        "coord_updates": 489,
        "active_blocks": [6, 6, 6, 6, 5, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.4b860deda29e8p-2 0x1.862405c979d00p-3 "
            "0x1.ec74258301200p-4 0x1.a03ce6679c400p-5 0x1.4c02e077f0080p-5 "
            "0x1.bc174d5ac4100p-6 0x1.d14efe514d900p-7 0x1.299a242e0e200p-7 "
            "0x1.984f414c59400p-8 0x1.486305595b000p-8"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.418428988d20dp-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.f941f338b6e75p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.08dae8ef7dd1cp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.5811849152c7bp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.833ce4ca17b39p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.90f71bbbfea20p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.06693759ca959p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.9cc5c09b9233fp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.161f4a8a452e5p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b151cb92127d6p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.29144b0775e02p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.ba5fc6621322ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.3c1e1bc714083p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.bcd1270982109p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.44c8039c0130ep-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.be8890b1755d3p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.49b9214e5e44fp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.beda5d8447ac3p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.4bb298ab22e05p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.be57a0f592d0fp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "asgd-full-batch-mu-p": {
        "outer_iters": 10,
        "coord_updates": 980,
        "active_blocks": [6, 6, 4, 2, 2, 2, 2, 2, 2, 2, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.addbfc6333360p-4 0x1.d1aac87bc7180p-6 "
            "0x1.143dd567f0900p-7 0x1.5d0566d4cd800p-9 0x1.b171a26891000p-11 "
            "0x1.c146d68a5c000p-13 0x1.1e10fa9ca0000p-16 0x1.d7a643b0f0000p-15 "
            "0x1.0843c02c38000p-14 0x1.a68bec3520000p-15"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.8a411633530bep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.f479f9191d21dp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.17d9e47bcbd3dp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.65952baa5ef65p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.3a78e8d00ec4bp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.93ecffd91bc4ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.48e79b1ad51b1p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.a81be4c0d0ec6p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.4ee2e6f7774c9p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b100c16f8205ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.51581d303dd6bp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b4fba9cd2d2bbp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52574e4b6ba0bp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b6cca5d792f50p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52bcb948f7462p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b7a5fcb149142p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52e3b855ea7ebp-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b80e72a0ad7fdp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f1dfcf897c7p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b842393cfbc41p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
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
            "0x1.995d1045e2e80p-6 0x1.ca62171c7f700p-6 0x1.1fa031463bcd0p-5 "
            "0x1.fdc8aa2ba6840p-6 0x1.395906dce7fc0p-6 0x1.3979d18776240p-6 "
            "0x1.db2aacba8d900p-6 0x1.18e8deacc67d0p-5"
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
            "-0x1.954ec5f7ff0e4p-6 -0x1.4cb39099f8280p-6 -0x1.465ca35f2042ap-6 "
            "0x1.93ab6744c104ep-6 0x1.79a06c4e7b295p-6 0x1.aeadda055d0c2p-6 "
            "0x1.ee80f0e4e12d9p-4 -0x1.6519782b4ec2cp-5 0x1.5faa0d3f95d20p-4 "
            "-0x1.d36b8cc14b23dp-9 0x1.80699e43150ebp-5 0x1.6059e2a657111p-3 "
            "0x1.070ae05dcc437p-3 0x1.0f41f67f3e9adp-9 -0x1.b94259990155ap-8 "
            "-0x1.c9bbcb4f5ec74p-9 -0x1.2f5c8f8ad676bp-6 -0x1.4454ba3211d65p-6 "
            "0x1.037bd44bc0f8ep-5 -0x1.4660a299311cbp-6 0x1.d10aa90dba4e1p-7 "
            "0x1.2c992491550d3p-4 0x1.7988e21ed3d63p-5 -0x1.0513a31b77c4ep-4 "
            "-0x1.a9935a42fa19ep-5 0x1.02fc1625d0c2ap-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.21ceee0d2a304p-4 -0x1.9a2cf525ec536p-6 -0x1.308a4074b3e16p-7 "
            "0x1.06bfb6e0cf679p-5 0x1.0ede2de7e47e9p-4 0x1.3e648ed60c85ep-6 "
            "0x1.a1ac0e5ca3f63p-4 -0x1.1aabe8a2b2bd7p-3 0x1.21e14d4390e5cp-3 "
            "0x1.b466acb25c459p-8 0x1.61f0a5f14e404p-5 0x1.045ffef2f2c0ep-3 "
            "0x1.7601f9d744de4p-4 -0x1.fc9307b7ce380p-6 -0x1.13ae150ea2929p-5 "
            "0x1.fc83c0275434fp-7 0x1.5db80e20308c5p-5 0x1.7d1e60ca8232cp-8 "
            "-0x1.d57652cb4338ep-8 -0x1.931a721c93f34p-10 -0x1.7eea8e3741de4p-5 "
            "0x1.da23310d3873dp-6 0x1.1ee4bfc970354p-5 -0x1.9230b80361da5p-5 "
            "-0x1.8446d4ff68653p-6 0x1.37228f850346ap-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.e62cf5124094ep-6 -0x1.7b03afcde5373p-6 -0x1.34ef5d997938dp-5 "
            "0x1.12d8c2a88d2fap-4 -0x1.c667a43f3de60p-10 0x1.c15fab2a7ff19p-5 "
            "0x1.8cb876c8b9152p-4 -0x1.43b4e235b225bp-4 0x1.bacd8ff6de38bp-4 "
            "0x1.464dcb5717c80p-7 0x1.71eaf6054df5dp-5 0x1.1b5e3891be986p-3 "
            "0x1.0ef21e9eb7d40p-3 -0x1.7578d67783b41p-7 -0x1.8d49ef94d250bp-7 "
            "0x1.865ebbd93beb4p-7 0x1.6285085d53033p-4 0x1.6f8cd3be96eb3p-6 "
            "-0x1.6a3bfb67b0860p-6 0x1.bd7c8c0e0d975p-7 -0x1.794b3801c6607p-5 "
            "0x1.0ec09d6f21ef6p-3 -0x1.a0cf5b234ba9cp-9 -0x1.b9c99f0fe6abbp-4 "
            "-0x1.2a63f6a670386p-4 0x1.f2c63bc3dc483p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.116f859249463p-5 -0x1.b192234d05ca5p-6 -0x1.1de81af4fa235p-4 "
            "0x1.fc401c121aecep-5 0x1.08ead05097929p-5 0x1.6c7f6d1825eb9p-4 "
            "0x1.b507c6bbdaf57p-4 -0x1.58de764d7941ap-6 0x1.bd96c18d69b16p-4 "
            "0x1.f6723fed37e09p-7 0x1.e07d95f89ed96p-7 0x1.1a3211f349c10p-3 "
            "0x1.9c85952e99a9cp-4 -0x1.c46928528521ep-8 -0x1.4acfcc4053f13p-6 "
            "-0x1.6bb09a0e2a8bcp-10 0x1.7ee05bc81799fp-5 -0x1.8807b234a754fp-7 "
            "0x1.7c27919e2b924p-6 -0x1.417e4cca08f03p-5 -0x1.952158616f487p-6 "
            "0x1.bec8cbaec7740p-4 0x1.01f009d39f331p-5 -0x1.ab7ace1571d54p-4 "
            "-0x1.4532b408c5a29p-4 0x1.127fb3558fec5p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.ae4f9066abf53p-7 -0x1.153da1afa3c24p-8 -0x1.594552b935e3fp-5 "
            "0x1.348eb7741b4c4p-5 0x1.5c5b3f272a9f2p-6 0x1.0308b3b509b2dp-5 "
            "0x1.ffc02f7c7d4bbp-4 -0x1.400ee7e48dbc5p-5 0x1.ae60ec8d27cfdp-4 "
            "-0x1.2fa76ac38b14bp-8 0x1.347158f032d5cp-5 0x1.e9d36ed0ee167p-4 "
            "0x1.a431583dbda06p-4 0x1.fd699f2c6c76ap-10 -0x1.27edb19c53daap-5 "
            "0x1.6946f76200ecep-8 0x1.a29c74d821d3dp-6 0x1.418d398114fa9p-7 "
            "0x1.2762f226c1a5cp-5 -0x1.3ff72b9a52a76p-9 -0x1.1250a790a76c1p-5 "
            "0x1.8be92709ded04p-4 0x1.16fa5c8a26095p-5 -0x1.93254a3256f8ep-5 "
            "-0x1.3f4f8b14bc105p-5 0x1.ed73a27afdec6p-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.774e60521fe75p-6 -0x1.066d8680e2dbfp-5 -0x1.9b351b3385d1ap-5 "
            "0x1.e236bf87fdb7ep-6 0x1.a7c5a3bbfcc9cp-5 0x1.a81b07d54629ep-5 "
            "0x1.253122e050912p-3 -0x1.36cb25869bb37p-4 0x1.586a1bc549956p-3 "
            "0x1.b0f82e3b1cc1ep-8 0x1.3a701bca178bcp-5 0x1.5639fc43d496bp-4 "
            "0x1.f2a905aeec4ebp-5 0x1.bcb1f71ffb2c6p-10 -0x1.28a147d735fb5p-7 "
            "0x1.5a8229ad2350fp-7 0x1.627e9f067151dp-7 0x1.4e6803143b632p-9 "
            "0x1.fd4d58c853c67p-7 -0x1.e94ebafbf31a4p-7 -0x1.ec65038af3f2bp-7 "
            "0x1.b8af733b577c3p-5 0x1.70b76f5ca6b93p-5 -0x1.03d4faaa3005bp-4 "
            "-0x1.1e9e72d6d195ep-5 0x1.884bea3813f9dp-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.4ba28b28663ddp-4 -0x1.e18e1c1bbcba0p-5 -0x1.bc751d15520c3p-4 "
            "0x1.ff179a49d52dep-6 0x1.9459703eed893p-7 0x1.30b0ff13a95bap-4 "
            "0x1.15b3c39fb5af1p-3 -0x1.2341ff48d21cdp-5 0x1.0b728bb452ea1p-3 "
            "0x1.9067a892a37ddp-12 0x1.6227248ca93f6p-5 0x1.157a5704f969ap-3 "
            "0x1.4e846944c1211p-4 -0x1.3a7b544213342p-6 -0x1.bc06f1c2e3becp-6 "
            "-0x1.3a1b913124f30p-7 0x1.a83aa58df7164p-8 0x1.b0c0dd550ecc4p-8 "
            "-0x1.08a95c4e73fd4p-7 -0x1.29a04ec5b47b3p-9 -0x1.854727cd50e55p-5 "
            "0x1.3da011aab1a49p-4 0x1.29ba1ed270bd4p-5 -0x1.0ed1d4022f6eep-4 "
            "-0x1.2ae9fb2905224p-5 0x1.63a4212a61e7ep-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "-0x1.878f9fbbaea61p-6 -0x1.1bb7215cd5f5cp-5 -0x1.3082020f4e511p-4 "
            "-0x1.e3f0bd47bdf01p-6 0x1.a0129944e4bdcp-5 0x1.aaa41803dfe4ep-5 "
            "0x1.5a3714249b5c7p-3 -0x1.a38b1b75161e6p-5 0x1.34cf051aae399p-3 "
            "0x1.8a8b9629869eep-8 0x1.b1a77468935a6p-5 0x1.31be15c3fa0fbp-3 "
            "0x1.661ea70f11ff9p-4 0x1.db7ebfb936d37p-9 -0x1.74e2852d2d425p-5 "
            "-0x1.284c3d17d83b7p-8 0x1.8985b5afedefbp-6 -0x1.fa410b1eecfe5p-8 "
            "0x1.6d263e4174a09p-6 -0x1.5069b24ec0dc4p-5 -0x1.a3d37be30d6dep-9 "
            "0x1.9d47d05f9808bp-4 0x1.2591633d6646ap-4 -0x1.7b97a6d9304b3p-4 "
            "-0x1.e1b2e1d215f5dp-5 0x1.b99afb32e0cd5p-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "asgd-l1-contiguous": {
        "outer_iters": 10,
        "coord_updates": 2000,
        "active_blocks": [6, 6, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.12d554b572c00p-4 0x1.3dfad80159340p-4 "
            "0x1.ea26a76f3ae00p-4 0x1.2ca1937f24220p-5 0x1.2f3f0305c4b10p-3 "
            "0x1.c664b2a1db480p-6 0x1.293b970bc2bd0p-4 0x1.231883121e650p-3 "
            "0x1.675c04015bac0p-6 0x1.5a04d85eea060p-4"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.c0a79e1d5231ap-9 0x0.0p+0 "
            "-0x1.2a933d84a1e28p-8 0x1.0e4f89eb99e22p-2 0x1.2bb08dd929aecp-1 "
            "0x1.cdcd433e5b4cap-7 0x0.0p+0 0x1.1862c0e5aba74p-2 0x1.1dee3f0477139p-4 "
            "-0x1.5b6e616befb9ap-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.26900a04d319ap-12 0x0.0p+0 "
            "-0x1.c25c75c32bb5ap-11 0x1.4e72db374e139p-2 0x1.31920964a1590p-1 "
            "0x1.ac98d01598cc6p-5 0x0.0p+0 0x1.a32a8ef1a572ep-3 0x1.7fca832faea82p-5 "
            "-0x1.28b69359b73eap-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.9fba25eacb30dp-10 0x0.0p+0 "
            "0x0.0p+0 0x1.07ffdb962e3cep-2 0x1.8756b4fcd6dbep-2 0x1.8bb4987354bc2p-8 "
            "0x0.0p+0 0x1.af4f751d69996p-4 0x1.9e150355312c8p-5 -0x1.72e9d22ea57aap-7 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.c2b51577e58fap-9 0x0.0p+0 "
            "-0x1.43b59bd6b57e6p-9 0x1.3a8c2167d0b7ap-2 0x1.4cdf62cfe1786p-1 "
            "0x1.b31a188446cdap-7 0x0.0p+0 0x1.608bde644ef92p-2 0x1.379cbfddc2eb0p-5 "
            "-0x1.83793057e5646p-9 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.73e2da38135a0p-8 0x0.0p+0 "
            "0x0.0p+0 0x1.04507adc570e6p-1 0x1.db2de9da663a6p-2 0x1.152f3ae9f3074p-6 "
            "0x0.0p+0 0x1.10e7cd4a5ab6ep-2 0x1.a9b2af5aa71c3p-4 -0x1.22c71263da016p-9 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.82fdc9c3fcb7fp-2 0x1.5d0bbe68536d7p-1 0x1.74bb6712958cap-9 0x0.0p+0 "
            "0x1.61ff5b3210fc7p-2 0x1.ca536c55abb18p-6 -0x1.9f0a62c795b16p-7 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0eb46d324aa4ap-8 0x0.0p+0 "
            "0x0.0p+0 0x1.1dd492b6067f0p-2 0x1.2bc48800bb9f0p-1 0x1.6939ec7fbcae2p-7 "
            "0x0.0p+0 0x1.6bd66eab4e9dap-2 0x1.33e8b33ef8f8ep-4 -0x1.2f5c0a9256c4dp-6 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.5da597ddbfb1dp-9 0x0.0p+0 "
            "-0x1.88a15645c701ap-12 0x1.2c6df602fb523p-1 0x1.3f39d889a0bf6p-1 "
            "0x1.77323a825ee0ep-6 0x0.0p+0 0x1.aae78e7cb6343p-3 0x1.4aef0c955db4bp-5 "
            "-0x1.34ed11ddba606p-9 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e69d51c997be0p-9 0x0.0p+0 "
            "-0x1.4eceeb3f9e6c0p-11 0x1.1f71e38412f7cp-2 0x1.53e5fb30f2e32p-1 "
            "0x1.0f2ce1e54fd4cp-6 0x0.0p+0 0x1.08e870f9b5012p-2 0x1.941f5d9743e93p-6 "
            "-0x1.5d64ed6ab1c90p-8 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.1bf256cfbf61dp-7 0x0.0p+0 "
            "-0x1.0d756ed44ee00p-14 0x1.03440ad95234ep-2 0x1.9cacb83054dc8p-1 "
            "0x1.1c9cf1899f898p-8 0x0.0p+0 0x1.05b557074b215p-2 0x1.0d7f8fd314a13p-3 "
            "-0x1.3657de4a60c08p-8 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },

    "asgd-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 1280,
        "active_blocks": [5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.68f38c8402d80p-7 0x1.a28c4c5c9c7c0p-7 "
            "0x1.892c61f650e00p-7 0x1.74ca78691ebe0p-6 0x1.e6eb2415a9dc0p-7 "
            "0x1.ea76b83979dc0p-6 0x1.61311d0bd1fe0p-5 0x1.54187ef7e0b20p-6 "
            "0x1.362af89c137c0p-6 0x1.81fd0570fd340p-6"
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
            "0x1.7b2ab1194ee54p-2 0x1.16a79235c175dp-3 0x1.569e148dd7cb8p-4 "
            "0x1.4c0e5616a3143p-6 0x1.4bd5964dcaa68p-2 0x1.2855225e6d965p-2 "
            "0x1.761e0ec4407c5p-2 -0x1.6c7dbf5414050p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.a9495844d9438p-2 0x1.1688ccdd4b465p-3 0x1.079a3a0a65f1cp-3 "
            "0x1.65d91b8c937f7p-7 0x1.a60cb539b8c0bp-3 0x1.eb4c40e0f89c4p-3 "
            "0x1.5d98f54ee6f6bp-2 -0x1.bbee0b46882aap-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.1480e91531014p-1 0x1.354957cec6f88p-4 0x1.04207e008ec4ap-3 "
            "0x1.149467936ea38p-4 0x1.e82c7b34d377cp-4 0x1.d62ee758765a7p-4 "
            "0x1.a70709b570ce3p-3 -0x1.218b0f5ab6ddfp-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.0abb83bcb0516p-1 0x1.18ee0153e8152p-5 0x1.e5fbb129575f6p-3 "
            "0x1.a970b91854a04p-10 0x1.b9179786b34dcp-5 0x1.4447350381c28p-3 "
            "0x1.56d9168ad71f5p-3 -0x1.9f5ad95450661p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.d73864e7717a9p-2 0x1.b7728a11d68b0p-5 0x1.32db7b7e0cac3p-3 "
            "-0x1.78862d9100cfap-3 0x1.c7ea9da2bfaa0p-3 0x1.a4fd652ea8fe4p-3 "
            "0x1.2e25fa1fb629cp-2 -0x1.052f7e5262b27p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.3152e85b2baebp-2 0x1.0370059fbda8cp-4 0x1.8795dc1d75245p-4 "
            "-0x1.54205ffc1d0b3p-5 0x1.2d2f7eb8f4bdbp-2 0x1.be877b1375740p-2 "
            "0x1.2581b8809ebacp-2 -0x1.d35c512b9da6ap-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.4156090874698p-2 -0x1.5c737321076fep-8 0x1.02cefd0a4d756p-3 "
            "-0x1.c2c0bcff25786p-7 0x1.2b55532e6b906p-2 0x1.875c60b708847p-2 "
            "0x1.800fa9f6725d0p-2 -0x1.28805acaaa549p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },

    "mrbcd-l1-scattered": {
        "outer_iters": 10,
        "coord_updates": 1600,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.3eff0825ad088p-3 0x1.2f8659e5cac30p-4 "
            "0x1.4cff338ea5b20p-5 0x1.6f91e12fec640p-6 0x1.eeb68d3a3b780p-7 "
            "0x1.c1aa3428b3a80p-7 0x1.18019a3f45000p-7 0x1.ac899e43d5500p-8 "
            "0x1.2f45c1f9a9200p-8 0x1.e924e3ae0c800p-9"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.fea8c40f9510ap-4 0x1.04544d9d238c4p-2 0x0.0p+0 0x0.0p+0 "
            "0x1.c6b7d0da681c6p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.bdbe7be2cea83p-3 0x1.b99ffc4f2791ap-2 0x0.0p+0 0x0.0p+0 "
            "0x1.278684616f315p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.3d64dae36838dp-2 0x1.15a3697fff1c0p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4578e57c63d34p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.4e80aac68c624p-2 0x1.39a608d64008ap-1 0x0.0p+0 0x0.0p+0 "
            "0x1.50095007e292ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.59578fce3de16p-2 0x1.4a6ff58cc6effp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.54b44a8cb7933p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6586a32504360p-2 0x1.4f8b2be16f8b1p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.567d32503b622p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6a5de902e273ap-2 0x1.5badad3ecdc8ap-1 0x0.0p+0 0x0.0p+0 "
            "0x1.56fbde5a082c8p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6be2abb3869d6p-2 0x1.60174efa5776ap-1 0x0.0p+0 0x0.0p+0 "
            "0x1.54ee614393c45p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6bd1abb1a4e77p-2 0x1.645074b72a162p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.542882606b85ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6bf1754d3c16ap-2 0x1.65ed264a14b8ap-1 0x0.0p+0 0x0.0p+0 "
            "0x1.517cc47e35aeep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "mrbcd-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 1600,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.bb21a4085d780p-6 0x1.6b8a71f816100p-7 "
            "0x1.f621cd6be2800p-9 0x1.89c3d534b6f00p-9 0x1.2590476c04f00p-9 "
            "0x1.8d7d5bd320800p-11 0x1.37d04b72e8c00p-11 "
            "0x1.d03a79c62f000p-12 0x1.3b3b60bf0d800p-12 "
            "0x1.897ca0b680000p-13"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.62c91e0f2824fp-4 0x1.77d897241cb84p-6 "
            "0x1.20a967a7d6eb6p-5 -0x1.3f1a2a07bc26cp-8 0x1.f2e25d0b03105p-4 "
            "0x1.7ab479179d3b8p-4 0x1.d39e9aa0b76c2p-4 -0x1.734071478aa22p-4 "
            "-0x1.34ef6844e79a0p-15 -0x1.bb5038aa5158ep-11 "
            "-0x1.b3f447e2cde46p-11 0x1.c48275528667dp-14",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.406f1e0608216p-3 0x1.4e992481d1ec9p-5 "
            "0x1.c34a0dcdf11dap-5 -0x1.a70c353161ae0p-8 0x1.4b4b120c6421dp-3 "
            "0x1.f67135cf79445p-4 0x1.6416831e71af2p-3 -0x1.1557ea0887467p-3 "
            "-0x1.72b8e385e2b8dp-16 -0x1.09fceecc97354p-11 "
            "-0x1.0592918815228p-11 0x1.0f817997ea3e6p-14",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.c07af34acb63ep-3 0x1.0437c97cba6e6p-4 "
            "0x1.48b2fbc50ba78p-4 -0x1.d905f35c6d562p-7 0x1.751fa63369ffep-3 "
            "0x1.2caf41d3656eap-3 0x1.9d9db9ecdbf7dp-3 -0x1.4f101134ad91ap-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.dc6fb922c983ap-3 0x1.14b03692872c8p-4 "
            "0x1.5d26fd8001d4bp-4 -0x1.097694c5a9fb8p-6 0x1.8c550dd7c91dep-3 "
            "0x1.514cc8bbfa01ep-3 0x1.c9ba72eca4635p-3 -0x1.73af69494913bp-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.fbe6e5d6af0c2p-3 0x1.2a0d289e56076p-4 "
            "0x1.757592a971a9ap-4 -0x1.2ec52d8e4e340p-6 0x1.9e425f81db48dp-3 "
            "0x1.642d7f26eaf32p-3 0x1.ddfb51413637ap-3 -0x1.88134c95f7aeep-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.10e9af5cf86b6p-2 0x1.402a976affa2ep-4 "
            "0x1.910439c18a9e4p-4 -0x1.437ea868d0d2ep-6 0x1.9fd5e698ca0e6p-3 "
            "0x1.68d21f6853be6p-3 0x1.e12d6daee9b9ap-3 -0x1.8d0737ea4c046p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.1aea1c92fdd2cp-2 0x1.4ca35d03400a6p-4 "
            "0x1.9fb5a664770cbp-4 -0x1.4bbb32548db84p-6 0x1.a8acfbb190edep-3 "
            "0x1.75c32c3f91f62p-3 0x1.efcdef3d70b15p-3 -0x1.998faaeb4e2d6p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.201b058e02e26p-2 0x1.5492b9e8b3c65p-4 "
            "0x1.a8d27e8c1f88ap-4 -0x1.569326cbfd3eep-6 0x1.abfe9161d94aep-3 "
            "0x1.7c00b46e7317bp-3 0x1.f382d4849ee36p-3 -0x1.9e9dc45527fb0p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.24822063418eep-2 0x1.5b2549e610dacp-4 "
            "0x1.b2918872e8efap-4 -0x1.5ee72c84a2cfbp-6 0x1.ad7ef87b30082p-3 "
            "0x1.80585aed219e6p-3 0x1.f6b1a7485d720p-3 -0x1.a2e5bb8eec705p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.275fd7b7d29b7p-2 0x1.5e88cdde424d2p-4 "
            "0x1.b6d485030ff0bp-4 -0x1.621efe0ba059fp-6 0x1.ae4cdaf5c8b48p-3 "
            "0x1.81c27ad6a97dfp-3 0x1.f7b7960758dd8p-3 -0x1.a4360b9a5c453p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-full-batch": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.16c0585a25980p-5 0x1.3220b59276980p-7 "
            "0x1.a2c8787e8ac00p-9 0x1.2fb1d17aff400p-10 0x1.c271f0afd7000p-12 "
            "0x1.511c263590000p-13 0x1.fa6f3342d0000p-15 "
            "0x1.7cf57f8d90000p-16 0x1.1ebc91de00000p-17 "
            "0x1.afbbc33e00000p-19"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.49187c5ccc34ep-2 0x1.200dfeaaf9862p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.31db2d548ade2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6d1599b6d7df3p-2 0x1.592ac89dc37d3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4fd6958ffbee1p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6d031ddc9bf39p-2 0x1.66d2cd34b0b2bp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4e4d4fe34596ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6adb7f17983adp-2 0x1.6ac3ff5f13f10p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4bcf871cd6696p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69b5b23f86d6dp-2 0x1.6c1101a04e88ep-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a9781386cd85p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.693937289c4cep-2 0x1.6c8732f8866b3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a17c358e90edp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69080eb309eb3p-2 0x1.6cb298f6550b4p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49e6470264834p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68f5284a37935p-2 0x1.6cc2c486c81f2p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49d37a314aea5p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68edf8b091f9dp-2 0x1.6cc8d45b544dcp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49cc62594644bp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68eb40b64c296p-2 0x1.6ccb1b9008a4dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c9b6cafe981p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-group-scattered": {
        "outer_iters": 7,
        "coord_updates": 9520,
        "active_blocks": [4, 4, 4, 4, 4, 4, 4, 4],
        "gaps": (
            "0x1.be416fa97ed80p-8 0x1.2d41b11195800p-11 0x1.255b993af0000p-16 "
            "0x1.75f4456200000p-22 0x1.7c5c93e000000p-26 0x1.6c54000000000p-34 "
            "0x1.bf40000000000p-40 0x1.9e00000000000p-44"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0",
            "-0x1.1d52dea2c59dep-13 0x0.0p+0 0x0.0p+0 0x1.c7f22e07ccc9ap-7 "
            "0x1.133b4f4046f4dp-14 0x0.0p+0 0x0.0p+0 -0x1.21a2d597e0253p-6 "
            "0x1.4ddca47fb4820p-11 0x0.0p+0 0x0.0p+0 0x1.dbb151aa7416ap-5 "
            "0x1.12b7c141b2753p-11 0x0.0p+0 0x0.0p+0 0x1.bec3131ea4deep-9 "
            "0x1.e90b6d0e30640p-13 0x0.0p+0 0x0.0p+0 -0x1.d6450211a8e12p-9 "
            "-0x1.922158a78e3bep-14 0x0.0p+0 0x0.0p+0 -0x1.2182e1bc009abp-5 "
            "-0x1.d304c175af2f8p-13 0x0.0p+0 0x0.0p+0 -0x1.59386afb2b5c2p-7 "
            "0x1.7ab1a650a8f72p-13 0x0.0p+0 0x0.0p+0 0x1.5e4757b2eb7bfp-6 "
            "-0x1.76db7bc2203e5p-12 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.330a845f6ba6ep-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.72b6897109788p-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.37ad96b580ed7p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0a5feb6e17c80p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.554b599191e44p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.7b2467e8490a3p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.c16bc9abd236bp-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.cce5642886fa0p-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.42b5cdcea74cbp-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.7e7c58ec341c0p-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.4569acf3b1e6ep-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0acc1ab9de7cep-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.5659b48fab8b2p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8906f9f1853efp-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.d591ccda97a36p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e29372d3ffeaep-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.447a9df3fe221p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.81390e32483efp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.46f0044c05196p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0d9be8887132fp-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.593eb568f87d3p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8aff26c22a50ep-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.d9779d3756f18p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e5dadb76e9280p-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.45012f06c6de0p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.82083360a022fp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.4770023bbb826p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e4a8e461e1e2p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59b1321808e87p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8b9ec87b9032ap-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da6778646313bp-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6aa711005f98p-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.4511254b0eef6p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.82117327a2e5ep-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.47774093e7704p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e5116cac59cep-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59bcc56886bf6p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8ba53c1feff0fp-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da75744600a5ep-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6bc07f9601edp-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.4512894cdea8ap-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8212be83a5a5ep-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.47781969d6722p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e527037f451dp-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59be816ec81d9p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8ba659d00030dp-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da778f0a11976p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6bdba9350f10p-6 "
            "0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-group-uneven": {
        "outer_iters": 6,
        "coord_updates": 8160,
        "active_blocks": [4, 4, 4, 4, 4, 4, 4],
        "gaps": (
            "0x1.483a73cfbcb80p-8 0x1.bc8b68026e800p-12 0x1.6c81733db0000p-16 "
            "0x1.a443557400000p-23 0x1.5ba8d68000000p-27 0x1.38aa000000000p-35 "
            "0x1.0040000000000p-43"
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
            "0x0.0p+0 0x1.90a90f1e24dc3p-8 0x1.30398e5ee8c96p-6 0x1.0ccde20c3c102p-4 "
            "0x1.5d5d933f125a8p-5 -0x1.7947b4930d6dcp-10 -0x1.83cf093ab8688p-7 "
            "0x1.ab903f6d53dd2p-9 0x1.1d887e886fa61p-6 0x1.7a295d17f4740p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.912aa7473c6e2p-8 0x1.309ef87a1780bp-6 0x1.0d208fe8ff8a8p-4 "
            "0x1.5dd3a981bfc36p-5 -0x1.79d9503a6dbe2p-10 -0x1.84380e1de6172p-7 "
            "0x1.ac3e405ebc243p-9 0x1.1e01248cec533p-6 0x1.7aeaa0916f717p-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.9133f72ad8b22p-8 0x1.30a2efa8d2e12p-6 0x1.0d2581c5e0daep-4 "
            "0x1.5ddc621417b82p-5 -0x1.79f0995d44deap-10 -0x1.843a2b5054490p-7 "
            "0x1.ac4c86c506f60p-9 0x1.1e06ca05baec0p-6 0x1.7ae505e3843a0p-9 0x0.0p+0 "
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
            "0x1.d9447a06c4c00p-9 0x1.46cb979abdc00p-10 0x1.0d9d406be5800p-11 "
            "0x1.6ab191fe5a000p-13 0x1.20df609148000p-14 "
            "0x1.cc3fe62f00000p-16 0x1.54c846bfa0000p-17 "
            "0x1.0170f84200000p-18"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.4e8567339a361p-2 0x1.1a8d4225ad006p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.449396079df55p-2 0x1.dd16e51ea79c0p-10 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0891a423bb49ap-13 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.74dc966c187efp-2 0x1.584b702ba2d27p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.5b652acfac3cap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6e1aae8aa5036p-2 0x1.66c2fcb7d6e7ep-1 0x0.0p+0 0x0.0p+0 "
            "0x1.521417809c0e2p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.6b08dab7a5919p-2 0x1.6ab72c3ee7f8fp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4c81e17a08d93p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69c3d21209c7ep-2 0x1.6be54d07d4a78p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4ab7bfdc0465bp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.69451de6198c6p-2 0x1.6c898ee8d592bp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.4a41fa1c23184p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.690c01510bfe0p-2 0x1.6cb17ca9254ccp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49f93f61feb5ap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68f6eacc32e9ap-2 0x1.6cc19681297edp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49db5c1c06274p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68ef0833d2a5cp-2 0x1.6cc854e87f422p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49cdfe36ac8efp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68ebb8850e3f0p-2 0x1.6ccadcb8c175dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c9f510f931ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },
    "proxsvrg-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.55e34fb76b800p-9 0x1.8a354caa1e000p-13 "
            "0x1.0ee14e1bd0000p-13 0x1.b7f3508640000p-17 "
            "0x1.f9567ba980000p-19 0x1.12ab14a5c0000p-19 "
            "0x1.acef662c00000p-22 0x1.0d20373c00000p-23 "
            "0x1.2cfd29c000000p-24 0x1.baf927c000000p-26"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x1.3cabbbdc802cbp-13 0x1.14491835c4ea6p-14 "
            "0x1.ba21e67e78086p-12 0x1.635bf4fb6444cp-15 "
            "-0x1.43caeef696d44p-11 -0x1.41181c67faab4p-14 "
            "-0x1.8de730fdcbc3ep-13 0x1.796a1ab004242p-13 "
            "0x1.e34d874171a63p-3 0x1.0f3ccc32c699cp-4 0x1.8093f6d3dad36p-4 "
            "-0x1.74a061d593629p-7 0x1.771f7481ee4edp-3 0x1.499743a7e716dp-3 "
            "0x1.b3a481244ecd0p-3 -0x1.6f84864797f6ep-3 "
            "-0x1.5f30d630558d6p-13 -0x1.1e14b26ed158ap-11 "
            "-0x1.8678f1e86851ep-12 -0x1.bb85669c895e8p-16",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.1d90d9310d18cp-2 0x1.52d7ad2144545p-4 "
            "0x1.b180e2cc8bb6ap-4 -0x1.51b281de5766ap-6 0x1.a5244928db033p-3 "
            "0x1.7636d99dd226ep-3 0x1.e7f0e9b111db2p-3 -0x1.9b87bd1b68355p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.289a9dd7e1e60p-2 0x1.6227976677b9bp-4 "
            "0x1.ba784b7503e3ap-4 -0x1.637e0bac94d8ep-6 0x1.aeea5b5742cd5p-3 "
            "0x1.8263dbe216cd3p-3 0x1.f764ca8e3df6bp-3 -0x1.a55ca6829c5f5p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2bfe79603692ep-2 0x1.654755d95c86ep-4 "
            "0x1.bf0e46e4510a2p-4 -0x1.69d08634efa29p-6 0x1.af498bd4af91ap-3 "
            "0x1.83f74c4d62185p-3 0x1.f9a30a5b500c3p-3 -0x1.a68f9d884948dp-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2c9274b096ecep-2 0x1.65b7986944951p-4 "
            "0x1.c01950695ed5dp-4 -0x1.6a908c7c8227cp-6 0x1.af869906fa64ap-3 "
            "0x1.84835d7a6bfe2p-3 0x1.fa264cf1b48bep-3 -0x1.a6fa35b1526fap-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2cb8fadc53392p-2 0x1.65f3ff7e263f5p-4 "
            "0x1.c0482983f3a82p-4 -0x1.6ab8e25d0c0c8p-6 0x1.af9dd2cbdc8bep-3 "
            "0x1.84b14c0dc59f6p-3 0x1.fa450fcba863dp-3 -0x1.a718e984af5dbp-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2cc6789b9c9fep-2 0x1.6601910649e14p-4 "
            "0x1.c05dadd961f13p-4 -0x1.6ad638da76db2p-6 0x1.afa068f850c46p-3 "
            "0x1.84b903a4dd6dep-3 0x1.fa4c265cbdc26p-3 -0x1.a71f77854a7e2p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2cc9590c58c26p-2 0x1.66065993de1f7p-4 "
            "0x1.c0628fda30c25p-4 -0x1.6ad673c43e58dp-6 0x1.afa2272e9224ep-3 "
            "0x1.84bada0ee1923p-3 0x1.fa4d996a79fa3p-3 -0x1.a720aa0e11218p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2cc9f62f6508ep-2 0x1.660746d726c06p-4 "
            "0x1.c063e5163424ep-4 -0x1.6ad7bd67ef976p-6 0x1.afa2723f043bdp-3 "
            "0x1.84bb51cb97fa2p-3 0x1.fa4dfa9a26e30p-3 -0x1.a7211ead22bc5p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.2cca2e931dd4fp-2 0x1.660789be7393dp-4 "
            "0x1.c0643a98b985dp-4 -0x1.6ad805f7f87c6p-6 0x1.afa2691d274e8p-3 "
            "0x1.84bb613bc9b27p-3 0x1.fa4dfdb04403dp-3 -0x1.a721268f43182p-3 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
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
    return G.solve(spec, G.SolverConfig(seed=7, gap_tol=1e-12, eta=tuned_eta(spec),
                                        **fields))


def _nonzeros_hex(x):
    return " ".join(f"{i}:{x[i].hex()}" for i in np.flatnonzero(x).tolist())


CHUNK_GOLDEN = {
    "adsgd-full-batch-long-epoch": {
        "outer_iters": 6,
        "coord_updates": 7010,
        "active_blocks": [6, 6, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.4b385731713c0p-6 0x1.7e9189c298e00p-9 "
            "0x1.9ccd0bc7d0000p-12 0x1.cc87435710000p-15 0x1.02a54683e0000p-17 "
            "0x1.45bbac4600000p-20"
        ),
        "x_final": (
            "7:0x1.68ea3b1076474p-2 8:0x1.6ccbf40a6c256p-1 11:0x1.49c8a61b2011ap-2"
        ),
    },

    "adsgd-long-epoch": {
        "outer_iters": 6,
        "coord_updates": 6967,
        "active_blocks": [6, 6, 3, 3, 3, 3, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.802737836ffa0p-5 0x1.178abe5e63200p-9 "
            "0x1.b3d1733a42000p-13 0x1.f30e826580000p-19 0x1.336903be00000p-21 "
            "0x1.2fd47eb000000p-24"
        ),
        "x_final": (
            "7:0x1.68e9994bc020dp-2 8:0x1.6ccc750df15cfp-1 11:0x1.49c83869affd3p-2"
        ),
    },

    "adsgd-long-rows": {
        "outer_iters": 4,
        "coord_updates": 8000,
        "active_blocks": [15, 15, 15, 15, 15],
        "gaps": (
            "0x1.84db2ad70c69cp-1 0x1.7fc89c703f654p-1 0x1.7245ccc696fc0p-1 "
            "0x1.5cf9ac5de5c60p-1 0x1.56cfd7f2dc2c8p-1"
        ),
        "x_final": (
            "248:-0x1.740014cc42aeep-7 286:-0x1.8e27190627d10p-9 "
            "704:0x1.81e26eecd17b0p-9 708:-0x1.cde59fd8b4c1bp-8 "
            "757:-0x1.622dc999bbf50p-5 770:-0x1.d8065d5dc4a7ap-12 "
            "872:-0x1.e0fe893e567a0p-11 876:0x1.36962a68542b3p-13 "
            "888:-0x1.555c230db8c92p-7 993:-0x1.652dd29e5605ep-7 "
            "1387:-0x1.2e7c9be1cd1b4p-7 1388:-0x1.26df6bfeeaac0p-11 "
            "1392:-0x1.b72d5b7c4b9dap-8"
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
            "0x1.4a58be7a76ff8p-2 0x1.5b28469eb1c7cp-1 0x1.1c291a5d88120p-5 "
            "0x1.631e387c8b200p-9"
        ),
        "x_final": (
            "0:-0x1.aa721e0385f32p-19 1:-0x1.d6aa04821877ap-22 2:0x1.931fe71bf945ep-29 "
            "3:0x1.5ea0ca16b00e9p-25 7:0x1.60e8f2cda1145p-2 8:0x1.6e6319b640c92p-1 "
            "9:0x1.55560268d448dp-17 10:0x1.5599741958546p-23 11:0x1.44be06b9e1fbdp-2 "
            "12:0x1.361c5c0531e3bp-14 13:-0x1.63b78c0d1317cp-18 "
            "14:-0x1.fd164a6b8b35ep-24 15:0x1.a83eaf1c0b7fbp-17 "
            "16:-0x1.55df44ae2290cp-16 17:0x1.e3aaa5714ab94p-21 "
            "18:-0x1.77b9640dffde1p-20 19:-0x1.4a0008386924ap-20"
        ),
    },
    "proxsvrg-logistic-long-epoch": {
        "outer_iters": 4,
        "coord_updates": 56000,
        "active_blocks": [5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.0514464377300p-9 0x1.9ea2f12af0000p-16 "
            "0x1.90f6e36200000p-20 0x1.7bd2937000000p-25"
        ),
        "x_final": (
            "8:0x1.2cca2ff82730cp-2 9:0x1.6607785e2c950p-4 10:0x1.c064352d7915bp-4 "
            "11:-0x1.6ad7db5b21595p-6 12:0x1.afa27aa8349adp-3 13:0x1.84bb8070a5ba1p-3 "
            "14:0x1.fa4e162705427p-3 15:-0x1.a7213cd92a7f7p-3"
        ),
    },
    "proxsvrg-long-rows": {
        "outer_iters": 3,
        "coord_updates": 270000,
        "active_blocks": [15, 15, 15, 15],
        "gaps": (
            "0x1.84db2ad70c69cp-1 0x1.1a434a5ad27d0p-1 0x1.b14b24d622c70p-2 "
            "0x1.501f895912730p-2"
        ),
        "x_final": (
            "248:-0x1.795d941215e4cp-4 286:-0x1.aac02e77c5dcap-9 "
            "390:0x1.0d0d55727793bp-7 495:-0x1.1e0842333a1a7p-7 "
            "708:-0x1.b774be5067191p-11 757:-0x1.0e66183bccf5dp-2 "
            "872:-0x1.68619efaaf1e2p-16 888:-0x1.d3cea9e70603fp-5 "
            "993:-0x1.25244ef50cf47p-4 1238:-0x1.430ba2735d30fp-5 "
            "1281:-0x1.24f3fe77641a6p-6 1387:-0x1.50b832ae37aa2p-6 "
            "1392:-0x1.2efd6d1e55ed9p-7"
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


def _hexes(x):
    return " ".join(map(float.hex, x.tolist()))


def _entry(name):
    """A fresh run of one case, as its GOLDEN, CHUNK_GOLDEN or REFERENCE_GOLDEN entry."""
    if name in REFERENCE_CASES:
        rep = G.reference_solve(REFERENCE_CASES[name]())
        return {"outer_iters": rep.outer_iters, "gap": rep.gap.hex(),
                "x_final": _hexes(rep.x_final)}
    rep = run_case(name) if name in CASES else run_chunk_case(name)
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
