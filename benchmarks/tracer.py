"""Outside-in tracing of gapsgd's layers by wrapping module attributes.

Nothing in the package is edited. While a trace is active, the functions named
in SPAN_LAYERS and STEP_LAYERS, and the ``deriv`` / ``block_prox`` methods of
the loss and penalty singletons, are replaced by timing wrappers in every
gapsgd module that holds them. Leaving the trace puts every original object
back, so the package is byte-for-byte the same object graph afterwards.

Outer-level calls (once per outer iteration or per solve) are kept as spans in
memory; per-step calls are aggregated into a call count and a time. Time spent
in wrapped calls made directly from the traced call is summed as child time,
so the caller's self time is its own duration minus that sum.
"""

import contextlib
import dataclasses
import sys
import time

import numpy as np

# (defining module, attribute, layer name): called once per outer iteration
# or per solve, so every call is kept as a span.
SPAN_LAYERS = (
    ("gapsgd.harness", "generate_synthetic", "harness.generate_synthetic"),
    ("gapsgd.harness", "load_libsvm", "harness.load_libsvm"),
    ("gapsgd.harness", "build_spec", "harness.build_spec"),
    ("gapsgd.problem", "lipschitz_constants", "problem.lipschitz_constants"),
    ("gapsgd.duality", "column_bounds", "duality.column_bounds"),
    ("gapsgd.duality", "dual_point", "duality.dual_point"),
    ("gapsgd.duality", "_dual_value", "duality.dual_value"),
    ("gapsgd.duality", "screen", "duality.screen"),
    ("gapsgd.solvers", "inner_budget", "solvers.inner_budget"),
    ("gapsgd.solvers", "_smooth_parts", "solvers.smooth_parts"),
)

# Called once or more per inner step: aggregated only.
STEP_LAYERS = (
    ("gapsgd.problem", "_gather_rows", "problem.gather_rows"),
    ("gapsgd.problem", "soft_threshold", "problem.soft_threshold"),
)

# (registry in gapsgd.problem, method, layer name): per-step methods of the
# shared loss and penalty singletons.
METHOD_LAYERS = (
    ("LOSSES", "deriv", "problem.loss_deriv"),
    ("REGULARIZERS", "block_prox", "problem.block_prox"),
)


@dataclasses.dataclass
class Stat:
    """Aggregate of one layer: calls, seconds, and layer-specific counts."""

    calls: int = 0
    s: float = 0.0
    units: int = 0   # inner steps, gathered entries or dropped blocks
    active: int = 0  # gathered entries inside the current active features


@dataclasses.dataclass
class Record:
    """What one trace saw: per-layer stats, spans, and time outside the callee."""

    stats: dict
    spans: list       # (layer, start, end), in start order
    child_s: float    # time in wrapped calls made directly by the traced call
    hook_s: float     # time the tracer spent on its own bookkeeping


def _gather_hook(tracer, stat, args, out):
    cols = out[0]
    stat.units += cols.size
    mask = tracer.active_mask
    stat.active += cols.size if mask is None else int(np.count_nonzero(mask[cols]))


def _budget_hook(tracer, stat, args, out):
    stat.units += int(out)


def _screen_hook(tracer, stat, args, out):
    stat.units += args[3].n_blocks - out.n_blocks
    mask = np.zeros(out.partition.d, dtype=bool)
    mask[out.features] = True
    tracer.active_mask = mask


HOOKS = {
    "problem.gather_rows": _gather_hook,
    "solvers.inner_budget": _budget_hook,
    "duality.screen": _screen_hook,
}


class Tracer:
    """Installs the wrappers for the duration of ``trace()`` and collects a Record."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.depth = 0
        self.child_s = 0.0
        self.hook_s = 0.0
        self.active_mask = None
        self._saved = []  # (owner, attribute, original, was_in_instance_dict)

    @contextlib.contextmanager
    def trace(self):
        """Wrap every layer, yield a Record that is filled in when the block ends."""
        self.stats = {}
        self.spans = []
        self.depth = 1
        self.child_s = self.hook_s = 0.0
        self.active_mask = None
        record = Record(stats=self.stats, spans=self.spans, child_s=0.0, hook_s=0.0)
        try:
            self._install()
            yield record
        finally:
            self._uninstall()
            self.depth = 0
            self.spans.sort(key=lambda span: span[1])
            record.child_s, record.hook_s = self.child_s, self.hook_s

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gapsgd" or name.startswith("gapsgd.")]
        for keep_span, layers in ((True, SPAN_LAYERS), (False, STEP_LAYERS)):
            for module_name, attr, layer in layers:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue  # layer absent in this version of the package
                wrapper = self._wrap(original, layer, keep_span)
                for module in modules:
                    if vars(module).get(attr) is original:
                        self._replace(module, attr, wrapper)
        problem = sys.modules["gapsgd.problem"]
        for registry, method, layer in METHOD_LAYERS:
            for obj in getattr(problem, registry).values():
                original = getattr(obj, method, None)
                if original is not None:
                    self._replace(obj, method, self._wrap(original, layer, False))

    def _replace(self, owner, attr, value):
        in_dict = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), in_dict))
        setattr(owner, attr, value)

    def _uninstall(self):
        while self._saved:
            owner, attr, original, in_dict = self._saved.pop()
            if in_dict:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, fn, layer, keep_span):
        stat = self.stats.setdefault(layer, Stat())
        hook = HOOKS.get(layer)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            depth = tracer.depth
            tracer.depth = depth + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.depth = depth
                stat.calls += 1
                stat.s += t1 - t0
                if depth == 1:
                    tracer.child_s += t1 - t0
                if keep_span:
                    tracer.spans.append((layer, t0, t1))
            if hook is not None:
                hook(tracer, stat, args, out)
                tracer.hook_s += clock() - t1
            return out

        return wrapper


def inner_phase_s(spans):
    """Seconds spent in inner loops: from each inner_budget call to the next dual_point.

    The engine asks for its inner budget right before an inner loop and builds
    the next dual point right after it, so the interval between the two is the
    inner phase (plus one matrix-vector product of the next evaluation).
    """
    total, opened = 0.0, None
    for layer, start, end in spans:
        if layer == "solvers.inner_budget":
            opened = end
        elif layer == "duality.dual_point" and opened is not None:
            total += start - opened
            opened = None
    return total
