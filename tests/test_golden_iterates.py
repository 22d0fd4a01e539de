"""Golden outer iterates: every stochastic solver's trajectory, pinned bit for bit.

The values were recorded from the engine that ran its inner loop over
full-length vectors and whole CSR rows. The engine now runs on the design
compacted to the surviving features, and that must change no bit: a screened
column only ever added vals * 0.0 to a row sum, and it never lies inside the
sampled block. The cases cover every solver, contiguous (uneven) and scattered
L1 partitions, logistic loss with group-L2 blocks, mu_p > 0, batch_size == n,
and screening that drops blocks over several outer iterations.

The proxsvrg group-L2 cases with blocks of 8 and 9 (contiguous and
scattered) and the two reference_solve cases (group-L2 on the scattered
partition, and L1), which pin x_final, gap and outer_iters, were recorded
from the per-block prox loop, before the full-vector prox ran over size
classes of equal-size blocks. Their blocks pass numpy's 8-wide unrolled
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

The adsgd cases were re-recorded when screening took the Gap Safe radius
sqrt(2 n gap max(c, 2 n mu_p)) in place of sqrt(2 T gap), every gap was
measured on the full problem, and each epoch ran on a working set inside the
safe set. The mrbcd, proxsvrg and reference cases did not move.

The stochastic cases were re-recorded when each epoch began to restart from
the better of its average and its last inner iterate, by full-problem gap,
in place of the average alone. Every case sets m, so the default inner count
of n moved none of them. The reference cases did not move.

The working designs of all these instances are 50-100% dense, so the engine
could run them on its dense storage, whose matrix products add the same
terms in another order than the entry sums did. Every case above is pinned
on the sparse storage instead: its dataset is built, and its step size and
solve run, under the tests' storage seam (conftest.storage("sparse"), which
sets problem._DENSE_SHARE to inf), so no dataset keeps a dense copy and no
working design reads one. The DENSE_CASES pin the dense storage
(conftest.storage("dense"), _DENSE_SHARE = 0: every dataset keeps its copy,
and every working design reads its rows from it) on one case per solver, a
full batch, mu_p > 0, a scattered group-L2 partition and an epoch of several
chunks; they were recorded when that storage was added. The reference cases
run at the module's own _DENSE_SHARE.

Twelve cases were re-recorded when a screening solve began to refine its
iterate on an identified model and to certify it, screen and pick working
sets with the refined dual point where that gave a smaller gap:
adsgd-full-batch, adsgd-full-batch-scattered, adsgd-l1-contiguous,
adsgd-l1-scattered, adsgd-logistic-group, adsgd-mu-p,
adsgd-full-batch-long-epoch, adsgd-long-epoch, dense-adsgd-full-batch,
dense-adsgd-l1-contiguous, dense-adsgd-long-epoch and dense-adsgd-mu-p.
Their gaps fall from the first identified row on, and their later iterates
follow the screens and working sets of those gaps;
adsgd-full-batch-long-epoch now certifies after two outer iterations and
returns its refined point. Every mrbcd and proxsvrg case and both reference
cases did not move.

Seven cases were re-recorded when a screening solve began to refine, screen
and pick working sets with the refined dual point as soon as x_hat's model
was stable, and to wait for the identified model only to stop:
adsgd-full-batch, adsgd-l1-contiguous, adsgd-logistic-group, adsgd-mu-p,
dense-adsgd-full-batch, dense-adsgd-l1-contiguous and dense-adsgd-mu-p.
Their gaps fall from the first stable row on and their screens drop blocks
earlier; their iterates, outer_iters and coord_updates kept every bit.
Every other case did not move.

Twelve cases were re-recorded when the refinement of a squared-loss L1
model gave up its linear solve for the Newton steps every other model
takes, which solve the same linear system in one step, to rounding:
adsgd-full-batch, adsgd-full-batch-scattered, adsgd-l1-contiguous,
adsgd-l1-scattered, adsgd-mu-p, adsgd-full-batch-long-epoch,
adsgd-long-epoch, dense-adsgd-full-batch, dense-adsgd-l1-contiguous,
dense-adsgd-long-epoch, dense-adsgd-mu-p and reference-l1. Their refined
points and dual points moved in the last bits: the gaps of rows certified
by a refined dual point moved by at most 1.8e-14, and the returned refined
points of adsgd-full-batch-long-epoch, adsgd-long-epoch,
dense-adsgd-long-epoch and reference-l1 by at most 2.4e-15 relative. Their
outer_iters, coord_updates, active blocks and every other iterate kept
their bits, and every mrbcd, proxsvrg, logistic and group-L2 case did not
move.

adsgd-long-rows was re-recorded when the refinement of an L1 model began to
drop the coordinates whose signs its solution flips and to solve again on
the smaller support, where it used to find no point (outer_iters 4 -> 4,
coord_updates 8400 -> 11600): the gap of its row at outer iteration 2 fell
to a refined dual point's, which then centred the screen and scored larger
working sets, so its later gaps and x_final moved.

Eleven cases were re-recorded when a screening solve began to stop on the
refined point's own gap, on an identified model whose safe set holds
exactly that point's nonzero blocks, instead of waiting for x_hat itself to
certify. outer_iters went 10 -> 3 for adsgd-full-batch, adsgd-l1-contiguous,
adsgd-logistic-group, adsgd-mu-p, dense-adsgd-full-batch,
dense-adsgd-l1-contiguous and dense-adsgd-mu-p; 10 -> 2 for
adsgd-full-batch-scattered and adsgd-l1-scattered; and 6 -> 4 for
adsgd-long-epoch and dense-adsgd-long-epoch. Each new entry is its old one
cut at the new stop row: the gaps, active blocks and iterates before that
row kept every bit, and only the stop row is new, with the refined point
and its own gap, at most 1.8e-14. The x_final of adsgd-long-epoch and
dense-adsgd-long-epoch kept its bits, since the old run returned the same
refined point at its last row. The other cases, adsgd-full-batch-long-epoch
among them, did not move.

adsgd-group-uneven, adsgd-group-scattered, dense-adsgd-group-scattered and
adsgd-full-batch-mu-p were recorded last, from the engine as it stood before
the full-vector screening solver without variance reduction was removed,
whose cases had pinned these paths. The first three pin screened compaction
over blocks of 9 and 8, whose screens drop blocks of both sizes; the last
pins a full batch with mu_p > 0. That removal moved no bit of any case.

Every adsgd case, 17 in all, was re-recorded when a screening solve began
to refine x_hat's model on the first row that holds it, rather than once
the model is stable, and to return the refined point as the next row,
with no epoch in between, where the screen after its row leaves exactly
that point's nonzero blocks: adsgd-full-batch, adsgd-full-batch-mu-p,
adsgd-full-batch-scattered, adsgd-group-scattered, adsgd-group-uneven,
adsgd-l1-contiguous, adsgd-l1-scattered, adsgd-logistic-group, adsgd-mu-p,
adsgd-full-batch-long-epoch, adsgd-long-epoch, adsgd-long-rows and the
five dense-adsgd cases. In the nine cases that pin every iterate, the
first epoch's iterate kept its bits, and its row's gap is now its
refinement's. outer_iters went 3 -> 2 in ten cases, 4 -> 3 for
adsgd-long-epoch and dense-adsgd-long-epoch, and stayed at 2 in four;
coord_updates fell by 25% (adsgd-long-epoch, 4662 -> 3494) to 69%
(adsgd-l1-contiguous, 200 -> 62). Each returned refined point has the old
x_final's support and lies within 6e-12 of it, relative, but for
adsgd-long-rows: it ended uncertified
at its cap of 4 with gap 0.59 and now returns its refined point at outer
iteration 3 (coord_updates 11600 -> 6400). Every mrbcd, proxsvrg and
reference case did not move.

Fifteen adsgd cases were re-recorded when a screening solve's epoch began
to refine x_cur's model at the boundaries of eight sub-epochs (replaced
since by model checks, below) and to end where that refinement certifies
itself: adsgd-full-batch, adsgd-full-batch-mu-p,
adsgd-full-batch-scattered, adsgd-group-scattered, adsgd-group-uneven,
adsgd-l1-scattered, adsgd-logistic-group, adsgd-mu-p,
adsgd-full-batch-long-epoch, adsgd-long-epoch, adsgd-long-rows,
dense-adsgd-full-batch, dense-adsgd-group-scattered, dense-adsgd-long-epoch
and dense-adsgd-mu-p. coord_updates fell by 12% (adsgd-l1-scattered,
96 -> 84) to 75% (adsgd-long-epoch and dense-adsgd-long-epoch, 3494 -> 874,
whose outer_iters went 3 -> 2); every other outer_iters and every sequence
of active blocks but those two kept its value. Each returned point has the
old x_final's support and lies within 1.2e-12 of it, relative. The epoch
takes its steps from the same stream, so adsgd-l1-contiguous and
dense-adsgd-l1-contiguous, whose epochs found no certifying model before
their last step, did not move, nor did any mrbcd, proxsvrg or reference
case.

Fifteen adsgd cases were re-recorded when a screening solve began to take
the refined point x_r of x_hat's model as the row's point wherever
P(x_r) < P(x_hat), with x_r's own evaluation, in place of certifying x_hat
with x_r's dual point: adsgd-full-batch, adsgd-full-batch-mu-p,
adsgd-full-batch-scattered, adsgd-group-scattered, adsgd-group-uneven,
adsgd-l1-contiguous, adsgd-l1-scattered, adsgd-logistic-group, adsgd-mu-p,
adsgd-full-batch-long-epoch, adsgd-long-rows, dense-adsgd-full-batch,
dense-adsgd-group-scattered, dense-adsgd-l1-contiguous and
dense-adsgd-mu-p. In each, the row at outer iteration 1 now holds x_r with
its own gap, at most 2.9e-14, where x_hat certified by x_r's dual point
read 2.9e-4 to 0.16. In all but adsgd-long-rows every other row, the
outer_iters, coord_updates, active blocks and x_final kept their bits: the
screen after that row leaves exactly x_r's blocks, and the next row returns
x_r as before. adsgd-long-rows takes x_r on rows 1 and 2: their gaps went
0.45 -> 0.15 and 0.30 -> 8.9e-16, its stop row's 8.9e-15 -> 8.9e-16, and its
x_final moved by 1.1e-14 relative; its outer_iters (3), coord_updates (4400)
and active blocks kept their values. adsgd-long-epoch,
dense-adsgd-long-epoch and every mrbcd, proxsvrg and reference case did not
move.

Thirteen adsgd cases were re-recorded when a screening solve's epoch gave
up its sub-epochs for a check of x_cur's model after every |W| steps,
refining a model that held at three checks in a row, with its chunks no
longer cut at the checks: adsgd-full-batch, adsgd-full-batch-mu-p,
adsgd-full-batch-scattered, adsgd-group-uneven, adsgd-l1-scattered,
adsgd-logistic-group, adsgd-mu-p, adsgd-full-batch-long-epoch,
adsgd-long-epoch, adsgd-long-rows, dense-adsgd-full-batch,
dense-adsgd-long-epoch and dense-adsgd-mu-p. Every outer_iters and every
sequence of active blocks kept its value. On epochs of 40 or 60 steps over
3 to 15 blocks a model now settles later than at the old boundaries, so
coord_updates rose: 20 -> 31 (adsgd-full-batch, dense-adsgd-full-batch),
23 -> 30, 24 -> 36, 99 -> 123, 84 -> 96, 40 -> 48, 32 -> 39 (adsgd-mu-p,
dense-adsgd-mu-p) and 4400 -> 6400 (adsgd-long-rows). On the epochs of 700
steps it settles sooner: 291 -> 31 (adsgd-full-batch-long-epoch) and
874 -> 76 (adsgd-long-epoch, dense-adsgd-long-epoch). Each returned point
has the old x_final's support and lies within 1.2e-13 of it, relative.
adsgd-group-scattered, adsgd-l1-contiguous, dense-adsgd-group-scattered
and dense-adsgd-l1-contiguous did not move, nor did any mrbcd, proxsvrg or
reference case.

Eight adsgd cases were re-recorded when a screening solve's epoch began to
end at its first model check whose refinement finds a point, whether or
not that point certifies, instead of only at one that certifies:
adsgd-l1-contiguous, adsgd-l1-scattered, adsgd-logistic-group, adsgd-mu-p,
adsgd-long-epoch, dense-adsgd-l1-contiguous, dense-adsgd-long-epoch and
dense-adsgd-mu-p. In each, the first epoch now ends at the refinement of a
model short of the optimum's (after 15 of its steps on three working
blocks, or 6 on two), whose point the row at outer iteration 1 takes with
a gap of 0.046 to 0.44; the next epoch refines the optimum's model, and its
row certifies. So outer_iters went 2 -> 3, each case's active blocks gained
that row's safe set, and coord_updates went 62 -> 76 (adsgd-l1-contiguous,
dense-adsgd-l1-contiguous) or kept its value. Each returned point has the
old x_final's support and lies within 2.1e-13 of it, relative, and each
stop gap is at most 3.4e-14. The other adsgd cases, and every mrbcd,
proxsvrg and reference case, did not move.

reference-l1 was re-recorded when the reference began to form the smooth
gradient of a squared-loss momentum point as the same combination of the
last two evaluations' gradients, with no A'g of its own: its outer_iters
(29) kept its value, its three nonzeros moved by 1, 2 and 4 ulp (at most
6.9e-16 relative), and its stop gap went 0 -> 2^-51.
reference-group-scattered, a logistic case, and every stochastic case did
not move.

Eleven cases were re-recorded when a dataset that stores at least half of
its cells began to form its whole-design products on a dense copy of them
(problem.Dataset), and every evaluation's A x with them: adsgd-full-batch-mu-p,
adsgd-group-scattered, adsgd-group-uneven, adsgd-mu-p,
proxsvrg-group-scattered, proxsvrg-group-uneven, reference-group-scattered,
adsgd-long-rows, proxsvrg-long-rows, dense-adsgd-group-scattered and
dense-adsgd-mu-p. Their designs store at least half their cells, so their
step sizes (from _spectral_bound) and evaluations moved by rounding. No
outer_iters, coord_updates or active set moved; each x_final kept its
support and lies within 2.7e-15 of the old one, relative.

Eight cases went back to the bytes they held before that change when the
dataset's storage became the one storage decision and the tests' seam began
to build each dataset on its case's storage: adsgd-full-batch-mu-p,
adsgd-group-scattered, adsgd-group-uneven, adsgd-mu-p,
proxsvrg-group-scattered, proxsvrg-group-uneven, adsgd-long-rows and
proxsvrg-long-rows, whose datasets the sparse seam no longer stores dense.
Six were re-recorded, because the dense seam now makes each one's dataset
dense, so its step size and its evaluations take the copy's products, and
each working design reads the copy's cells: dense-adsgd-full-batch,
dense-adsgd-l1-contiguous, dense-adsgd-long-epoch, dense-mrbcd-l1-scattered,
dense-proxsvrg-full-batch and dense-proxsvrg-logistic-group. No
outer_iters, coord_updates or active set moved; each x_final kept its
support and lies within 1.6e-15 of the old one, relative.
dense-adsgd-group-scattered, dense-adsgd-mu-p and the reference cases kept
their bytes.

python tests/test_golden_iterates.py NAME... prints each named case's entry
from a fresh run, in the layout below, for such a re-record.
"""

import dataclasses

import numpy as np
import pytest

import gapsgd as G

from conftest import make_instance, storage, tuned_eta


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
    "adsgd-group-uneven": (lambda: _logistic_uneven(3), dict(solver="adsgd")),
    "adsgd-group-scattered": (lambda: _scattered(_logistic_uneven(3), 4),
                              dict(solver="adsgd")),
    "adsgd-full-batch-mu-p": (lambda: _lasso(7, mu_p=0.05),
                              dict(solver="adsgd", batch_size=30)),
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
    with storage("sparse"):
        spec = build()
        cfg = G.SolverConfig(seed=7, m=40, max_outer=10, gap_tol=1e-12,
                             eta=tuned_eta(spec), keep_iterates=True, **fields)
        return G.solve(spec, cfg)


def _floats(hexes):
    return np.array([float.fromhex(h) for h in hexes.split()])


GOLDEN = {
    "adsgd-full-batch": {
        "outer_iters": 2,
        "coord_updates": 31,
        "active_blocks": [6, 6, 3],
        "gaps": "0x1.4a58be7a76ff8p-2 0x1.6800000000000p-46 0x1.6800000000000p-46",
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a95850p-2 0x1.6ccc7b641259dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b562ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a95850p-2 0x1.6ccc7b641259dp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b562ep-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-full-batch-mu-p": {
        "outer_iters": 2,
        "coord_updates": 30,
        "active_blocks": [6, 6, 2],
        "gaps": "0x1.ae1cbad4dccd0p-2 0x1.0000000000000p-48 0x1.0000000000000p-48",
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f61cafda3eap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b87c52e03ab36p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f61cafda3eap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b87c52e03ab36p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-full-batch-scattered": {
        "outer_iters": 2,
        "coord_updates": 36,
        "active_blocks": [5, 5, 3],
        "gaps": "0x1.4a58be7a76ff8p-2 0x1.e000000000000p-46 0x1.e000000000000p-46",
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a95839p-2 0x1.6ccc7b64124d2p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b57cap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a95839p-2 0x1.6ccc7b64124d2p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b57cap-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-group-scattered": {
        "outer_iters": 2,
        "coord_updates": 48,
        "active_blocks": [4, 2, 1],
        "gaps": "0x1.be416fa97ed80p-8 0x0.0p+0 0x0.0p+0",
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.4512d549b38f0p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.82130a4236ecfp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.477862210fb95p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e52adf17e037p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59bec869b5038p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8ba6afae21208p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da7806a2f3093p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6be2dbcd402ap-6 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.4512d549b38f0p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.82130a4236ecfp-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.477862210fb95p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e52adf17e037p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59bec869b5038p-8 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8ba6afae21208p-5 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "-0x1.da7806a2f3093p-7 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.e6be2dbcd402ap-6 "
            "0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-group-uneven": {
        "outer_iters": 2,
        "coord_updates": 123,
        "active_blocks": [4, 3, 1],
        "gaps": "0x1.483a73cfbcb80p-8 0x0.0p+0 0x0.0p+0",
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.913487124446cp-8 0x1.30a336fdbd91ap-6 0x1.0d25ca85eec03p-4 "
            "0x1.5ddcf10da4cf6p-5 -0x1.79f1ccdd9fb48p-10 -0x1.843a3e1fcb75ap-7 "
            "0x1.ac4dd2bbe457cp-9 0x1.1e072467e1835p-6 0x1.7ae586f4ada8ap-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.913487124446cp-8 0x1.30a336fdbd91ap-6 0x1.0d25ca85eec03p-4 "
            "0x1.5ddcf10da4cf6p-5 -0x1.79f1ccdd9fb48p-10 -0x1.843a3e1fcb75ap-7 "
            "0x1.ac4dd2bbe457cp-9 0x1.1e072467e1835p-6 0x1.7ae586f4ada8ap-9 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-l1-contiguous": {
        "outer_iters": 3,
        "coord_updates": 76,
        "active_blocks": [6, 6, 5, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.7c1e4475cd1e8p-3 0x1.3000000000000p-45 "
            "0x1.3000000000000p-45"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.a7c293b9a5c17p-1 0x0.0p+0 0x0.0p+0 0x1.4288db85d92aep-2 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a95408p-2 0x1.6ccc7b6412adbp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b5680p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a95408p-2 0x1.6ccc7b6412adbp-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b5680p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-l1-scattered": {
        "outer_iters": 3,
        "coord_updates": 96,
        "active_blocks": [5, 5, 4, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.63060520fa8e0p-3 0x1.1200000000000p-45 "
            "0x1.1200000000000p-45"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.623990324b4ddp-2 0x1.a296324a526f4p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a957d5p-2 0x1.6ccc7b6412ab3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b534dp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.68e99b1a957d5p-2 0x1.6ccc7b6412ab3p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b534dp-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        ],
    },

    "adsgd-logistic-group": {
        "outer_iters": 3,
        "coord_updates": 48,
        "active_blocks": [5, 5, 5, 2],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.7765d6677e240p-5 0x1.9000000000000p-49 "
            "0x1.9000000000000p-49"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.d1e8f6619dbedp-3 "
            "0x1.a53eec2d07b28p-3 0x1.103e7a3e2ea9dp-2 -0x1.c63c24d05ec29p-3 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cca4d31a1981p-2 0x1.6607afa763fd5p-4 0x1.c06466fc12535p-4 "
            "-0x1.6ad818a8b82ddp-6 0x1.afa2676324fd6p-3 0x1.84bb5cd2a76a3p-3 "
            "0x1.fa4dfaff677eap-3 -0x1.a7212602966a7p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.2cca4d31a1981p-2 0x1.6607afa763fd5p-4 0x1.c06466fc12535p-4 "
            "-0x1.6ad818a8b82ddp-6 0x1.afa2676324fd6p-3 0x1.84bb5cd2a76a3p-3 "
            "0x1.fa4dfaff677eap-3 -0x1.a7212602966a7p-3 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0",
        ],
    },

    "adsgd-mu-p": {
        "outer_iters": 3,
        "coord_updates": 39,
        "active_blocks": [6, 6, 6, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.c2f3a3875e120p-2 0x1.0400000000000p-45 "
            "0x1.0400000000000p-45"
        ),
        "iterates": [
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.3d34379036e26p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f61cafda24ap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b87c52e03b232p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x1.52f61cafda24ap-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.b87c52e03b232p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
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
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.45128b7535e5cp-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.8212c30a0ef0ep-6 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x1.47783c115bab5p-4 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0e526495b5da7p-8 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.59bea4eade4c2p-8 0x0.0p+0 0x0.0p+0 "
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
            "0x1.68e99b1a95889p-2 0x1.6ccc7b6412924p-1 0x0.0p+0 0x0.0p+0 "
            "0x1.49c81a80b5743p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
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
    with storage("sparse"):
        spec = build()
        return G.solve(spec, G.SolverConfig(seed=7, gap_tol=1e-12, eta=tuned_eta(spec),
                                            **fields))


def _nonzeros_hex(x):
    return " ".join(f"{i}:{x[i].hex()}" for i in np.flatnonzero(x).tolist())


CHUNK_GOLDEN = {
    "adsgd-full-batch-long-epoch": {
        "outer_iters": 2,
        "coord_updates": 31,
        "active_blocks": [6, 6, 3],
        "gaps": "0x1.4a58be7a76ff8p-2 0x1.6800000000000p-46 0x1.6800000000000p-46",
        "x_final": (
            "7:0x1.68e99b1a95850p-2 8:0x1.6ccc7b641259dp-1 11:0x1.49c81a80b562ep-2"
        ),
    },

    "adsgd-long-epoch": {
        "outer_iters": 3,
        "coord_updates": 76,
        "active_blocks": [6, 6, 5, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.7c1e4475cd1e8p-3 0x1.3000000000000p-45 "
            "0x1.3000000000000p-45"
        ),
        "x_final": (
            "7:0x1.68e99b1a95408p-2 8:0x1.6ccc7b6412adbp-1 11:0x1.49c81a80b5680p-2"
        ),
    },

    "adsgd-long-rows": {
        "outer_iters": 3,
        "coord_updates": 6400,
        "active_blocks": [15, 15, 15, 3],
        "gaps": (
            "0x1.84db2ad70c69cp-1 0x1.345c7de7d0fc0p-3 0x1.0000000000000p-50 "
            "0x1.0000000000000p-50"
        ),
        "x_final": (
            "757:-0x1.556c7fa428040p-1 993:-0x1.eb514fe695ae5p-3 "
            "1238:-0x1.01e61e385bf37p-3"
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
    "dense-adsgd-group-scattered": (lambda: _scattered(_logistic_uneven(3), 4),
                                    dict(solver="adsgd")),
    "dense-proxsvrg-logistic-group": (lambda: _logistic(6), dict(solver="proxsvrg")),
    "dense-proxsvrg-full-batch": (lambda: _lasso(6), dict(solver="proxsvrg",
                                                          batch_size=30)),
}


def run_dense_case(name):
    build, fields = DENSE_CASES[name]
    with storage("dense"):
        spec = build()
        cfg = G.SolverConfig(**{**dict(seed=7, m=40, max_outer=10, gap_tol=1e-12,
                                       eta=tuned_eta(spec)), **fields})
        return G.solve(spec, cfg)


DENSE_GOLDEN = {
    "dense-adsgd-l1-contiguous": {
        "outer_iters": 3,
        "coord_updates": 76,
        "active_blocks": [6, 6, 5, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.7c1e4475cd1e8p-3 0x1.2e00000000000p-45 "
            "0x1.2e00000000000p-45"
        ),
        "x_final": (
            "7:0x1.68e99b1a95410p-2 8:0x1.6ccc7b6412ad9p-1 11:0x1.49c81a80b5683p-2"
        ),
    },
    "dense-adsgd-full-batch": {
        "outer_iters": 2,
        "coord_updates": 31,
        "active_blocks": [6, 6, 3],
        "gaps": "0x1.4a58be7a76ff8p-2 0x1.6800000000000p-46 0x1.6800000000000p-46",
        "x_final": (
            "7:0x1.68e99b1a95850p-2 8:0x1.6ccc7b641259cp-1 11:0x1.49c81a80b562ep-2"
        ),
    },
    "dense-adsgd-mu-p": {
        "outer_iters": 3,
        "coord_updates": 39,
        "active_blocks": [6, 6, 6, 2],
        "gaps": (
            "0x1.ae1cbad4dccd0p-2 0x1.c2f3a3875e118p-2 0x1.0400000000000p-45 "
            "0x1.0400000000000p-45"
        ),
        "x_final": "1:0x1.52f61cafda24bp-1 8:0x1.b87c52e03b236p-2",
    },
    "dense-adsgd-long-epoch": {
        "outer_iters": 3,
        "coord_updates": 76,
        "active_blocks": [6, 6, 5, 3],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.7c1e4475cd1e8p-3 0x1.2e00000000000p-45 "
            "0x1.2e00000000000p-45"
        ),
        "x_final": (
            "7:0x1.68e99b1a95410p-2 8:0x1.6ccc7b6412ad9p-1 11:0x1.49c81a80b5683p-2"
        ),
    },
    "dense-adsgd-group-scattered": {
        "outer_iters": 2,
        "coord_updates": 48,
        "active_blocks": [4, 2, 1],
        "gaps": "0x1.be416fa97ed80p-8 0x0.0p+0 0x0.0p+0",
        "x_final": (
            "3:0x1.4512d549b3900p-6 7:-0x1.82130a4236ee0p-6 11:0x1.477862210fba4p-4 "
            "15:0x1.0e52adf17e044p-8 19:-0x1.59bec869b504ap-8 "
            "23:-0x1.8ba6afae2121bp-5 27:-0x1.da7806a2f30abp-7 "
            "31:0x1.e6be2dbcd4041p-6"
        ),
    },
    "dense-mrbcd-l1-scattered": {
        "outer_iters": 10,
        "coord_updates": 1600,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.8d0228219e1e0p-4 0x1.a7382f5197880p-6 "
            "0x1.d05b666981080p-7 0x1.e103915676900p-8 0x1.0c273a496ed00p-8 "
            "0x1.86149eed3d600p-9 0x1.a9c4fde641800p-10 0x1.109ff49883800p-10 "
            "0x1.46178dbf75800p-11 0x1.b4b01fb7a4000p-12"
        ),
        "x_final": (
            "7:0x1.69b6b73b141e4p-2 8:0x1.6c12d2643896dp-1 11:0x1.4a72c3ee4caf8p-2"
        ),
    },
    "dense-proxsvrg-logistic-group": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "gaps": (
            "0x1.5107da0332f30p-4 0x1.55e34fb76b700p-9 0x1.8a354caa1e000p-13 "
            "0x1.2b751122bc000p-14 0x1.1778c7ab40000p-17 0x1.4ab348b700000p-20 "
            "0x1.1428e77400000p-23 0x1.22aaf00000000p-26 0x1.3e46440000000p-31 "
            "0x1.b098700000000p-33 0x1.8b49800000000p-35"
        ),
        "x_final": (
            "8:0x1.2cca4d245628ap-2 9:0x1.6607af95e7b0dp-4 10:0x1.c06466ea2c646p-4 "
            "11:-0x1.6ad818907ce68p-6 12:0x1.afa2676425321p-3 13:0x1.84bb5cdb9e414p-3 "
            "14:0x1.fa4dfaffafcfdp-3 15:-0x1.a721260123979p-3"
        ),
    },
    "dense-proxsvrg-full-batch": {
        "outer_iters": 10,
        "coord_updates": 8000,
        "active_blocks": [6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6],
        "gaps": (
            "0x1.4a58be7a76ff8p-2 0x1.78f13d6863900p-8 0x1.19192d96a4800p-11 "
            "0x1.b4f1e8c8e0000p-15 0x1.549a230500000p-18 0x1.0991497c00000p-21 "
            "0x1.9e22704000000p-25 0x1.42e8620000000p-28 0x1.f78dc00000000p-32 "
            "0x1.88a1800000000p-35 0x1.3224000000000p-38"
        ),
        "x_final": (
            "7:0x1.68e99b1abb04cp-2 8:0x1.6ccc7b63f3653p-1 11:0x1.49c81a80d9ecep-2"
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
