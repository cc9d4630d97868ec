"""In-memory span tracer and the wrappers that put spans around calls into
parkfn's modules.

The wrappers are installed from outside the package, by replacing module,
class and registry attributes for the length of a traced pass, and removed
afterwards.  A span's self time is its duration minus the time covered by
its child spans.  Spans that occur once per sample or per enumerated
function are kept only as per-name sums; the coarser spans (jobs, layer
entry points) are also kept as records of (name, start, end, parent, job).
"""

from __future__ import annotations

import time
from collections import defaultdict

# Spans kept as individual records; all others are summed per name only.
KEPT = frozenset({
    "job", "ensemble.run_experiment", "ensemble.histogram", "ensemble.serialize",
    "ensemble.distance", "ensemble.equidistribution", "enumeration.oracle",
})


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, start, child_time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.records: list[tuple] = []
        self.job = ""

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self, counted: bool = True) -> None:
        name, start, child = self.stack.pop()
        end = time.perf_counter()
        duration = end - start
        if counted:
            self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if name in KEPT:
            self.records.append((name, start, end, parent[0] if parent else None, self.job))

    def inside(self, prefix: str) -> bool:
        return bool(self.stack) and self.stack[-1][0].startswith(prefix)

    def wrap(self, name: str, fn, unless_inside: str | None = None):
        """`fn` with a span around each call.  With `unless_inside`, calls made
        from within a span whose name has that prefix are left unwrapped, so
        a helper is attributed to its caller's span."""
        def traced(*args, **kwargs):
            if unless_inside is not None and self.inside(unless_inside):
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return traced

    def wrap_iter(self, name: str, fn):
        """Generator function `fn` with one span around each `next()`; the
        span count is the number of items produced."""
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.leave(counted=False)
                    return
                except BaseException:
                    self.leave()
                    raise
                self.leave()
                yield item
        return traced

    def count_calls(self, name: str, fn):
        """`fn` with a call counter and no span (for very cheap calls)."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted


class Patches:
    """Installs the tracer's wrappers on parkfn's modules and restores the
    original attributes.  Attributes that a later version of the package no
    longer has are skipped, so their spans simply read zero."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self.saved.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self.saved.append((owner, attr, owner.__dict__[attr], False))
            setattr(owner, attr, value)

    def _has(self, owner, attr: str) -> bool:
        return attr in owner if isinstance(owner, dict) else attr in vars(owner)

    def _get(self, owner, attr: str):
        return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

    def call(self, owner, attr: str, name: str, **kw) -> None:
        if self._has(owner, attr):
            self._set(owner, attr, self.tracer.wrap(name, self._get(owner, attr), **kw))

    def classmethod_call(self, cls, attr: str, name: str, count_only: bool = False) -> None:
        if self._has(cls, attr):
            func = cls.__dict__[attr].__func__
            wrapped = (self.tracer.count_calls(name, func) if count_only
                       else self.tracer.wrap(name, func))
            self._set(cls, attr, classmethod(wrapped))

    def iterator(self, owner, attr: str, name: str) -> None:
        if self._has(owner, attr):
            self._set(owner, attr, self.tracer.wrap_iter(name, self._get(owner, attr)))

    def install(self) -> None:
        from parkfn import core, ensemble, enumeration, limits, sample, stats

        t = self.tracer
        # sample: stream construction and the draw (draw + cyclic shift on
        # pf; a raw draw on the other ensembles).
        self.call(ensemble, "split_stream", "sample.split_stream")
        self.call(ensemble, "_sample_pf_array", "sample.draw")
        self.call(sample.RngStream, "integers", "sample.draw", unless_inside="sample.draw")
        # stats: one span per statistic evaluation in the experiment harness;
        # per-function evaluations inside the exact oracles count as features.
        for stat in list(ensemble.STATISTICS):
            self.call(ensemble.STATISTICS, stat, f"stats.{stat}")
        if self._has(ensemble, "_feature_fn"):
            feature_fn = ensemble._feature_fn
            self._set(ensemble, "_feature_fn",
                      lambda *a, **k: t.wrap("stats.feature", feature_fn(*a, **k)))
        for attr in ("lucky", "repeats", "ones", "chain_monotone"):
            self.call(stats, attr, "stats.feature", unless_inside="stats.")
        # core
        self.call(stats, "park", "core.park")
        self.call(core, "park", "core.park")
        self.classmethod_call(core.ParkingFunction, "_trusted", "core.construct", count_only=True)
        # ensemble
        self.call(ensemble, "run_experiment", "ensemble.run_experiment")
        self.classmethod_call(ensemble.Histogram, "from_values", "ensemble.histogram")
        self.call(ensemble, "exhaustive_histogram", "ensemble.histogram")
        self.call(ensemble.Histogram, "to_json_dict", "ensemble.serialize")
        for attr in ("ks_distance_to_limit", "tv_distance"):
            self.call(ensemble, attr, "ensemble.distance")
        for attr in ("exact_equidistribution", "weak_peak_check", "joint_coordinate_bound_check"):
            self.call(ensemble, attr, "ensemble.equidistribution")
        # enumeration: profile generation, permutation expansion, the
        # all-functions oracle and the closed-form/big-integer oracles.
        self.iterator(enumeration, "_sorted_profiles", "enumeration.profiles")
        self.iterator(enumeration, "multiset_permutations", "enumeration.expand")
        self.iterator(ensemble, "all_functions", "enumeration.all_functions")
        for attr in ("count_pf", "count_first", "exact_mean_first", "gf_statistic",
                     "gf_closed_form"):
            self.call(enumeration, attr, "enumeration.oracle")
        self.call(ensemble, "count_pf", "enumeration.oracle")
        # limits
        for attr in ("max_discrepancy_cdf", "bridge_max_cdf", "excursion_max_mean"):
            self.call(limits, attr, "limits.eval")

    def restore(self) -> None:
        while self.saved:
            owner, attr, original, is_dict = self.saved.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
