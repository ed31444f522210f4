"""In-memory spans around joinsketch's public functions, from outside.

``Tracer.installed()`` replaces each traced function by a wrapper that
records one span per call: name, start, end, parent span and run id.  Spans
live in flat arrays until the run ends.  A span's self time is its duration
minus the durations of its direct children.

``estimator``, ``sampling`` and ``kmin`` bind some of these functions by name
at import, so a function is patched in every module that looks it up.
``KMinState.threshold`` is not wrapped: it is called once per probe.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from joinsketch import estimator, hashing, kmin, oracle, relation, sampling

# Span name -> every (owner, attribute) through which callers reach it.
TARGETS = {
    "relation.load_relation": [(relation, "load_relation")],
    "relation.mirrored": [(relation.Relation, "mirrored")],
    "relation.group_and_prune": [(relation, "group_and_prune"), (sampling, "group_and_prune")],
    "hashing.values": [(hashing.PairwiseHash, "values")],
    "enumerator.sort_group": [(estimator, "sort_group")],
    "enumerator.scan_group": [(estimator, "scan_group")],
    "kmin.offer": [(kmin.KMinState, "offer")],
    "kmin.combine": [(kmin, "combine")],
    "estimator.run_once": [(estimator, "run_once")],
    "estimator.estimate_median": [(estimator, "estimate_median"), (sampling, "estimate_median")],
    "oracle.exact_size": [(oracle, "exact_size")],
    "sampling.draw_sample": [(sampling, "draw_sample")],
    "sampling.save_sample": [(sampling, "save_sample")],
    "sampling.load_sample": [(sampling, "load_sample")],
    "sampling.estimate_from_samples": [(sampling, "estimate_from_samples")],
}

# run_once results are kept so that work counters can be summed over every
# run; estimate_median itself returns only the median run's counters.
KEEP_RESULTS = {"estimator.run_once"}


class Tracer:
    """Span store for one benchmark process.  Not thread-safe."""

    def __init__(self):
        self.names = list(TARGETS)
        self.run_kinds: list[str] = []
        self.kept: list[tuple[int, object]] = []  # (run id, returned value)
        self.missing: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._run_id = -1

    def __len__(self) -> int:
        return len(self._start)

    def begin_run(self, kind: str) -> int:
        """Start a new run id; later spans belong to it."""
        self.run_kinds.append(kind)
        self._run_id = len(self.run_kinds) - 1
        return self._run_id

    def _wrap(self, fn, name_id: int, keep: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._start)
            self._name.append(name_id)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._run.append(self._run_id)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = perf_counter()
                self._stack.pop()
            if keep:
                self.kept.append((self._run_id, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for name_id, name in enumerate(self.names):
                owners = [(o, a) for o, a in TARGETS[name] if hasattr(o, a)]
                if not owners:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                original = getattr(*owners[0])
                wrapper = self._wrap(original, name_id, name in KEEP_RESULTS)
                for owner, attr in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "run": np.array(self._run, dtype=np.int32),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per run kind, per span name: calls, total seconds, self seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        own = duration - child
        kind_names = list(dict.fromkeys(self.run_kinds))
        kind_of_run = np.array([kind_names.index(k) for k in self.run_kinds], dtype=np.int32)
        kinds = kind_of_run[a["run"]] if duration.size else a["run"]
        out: dict[str, dict[str, dict[str, float]]] = {}
        for kind_id, kind in enumerate(kind_names):
            in_kind = kinds == kind_id
            table = {}
            for name_id, name in enumerate(self.names):
                sel = in_kind & (a["name"] == name_id)
                calls = int(sel.sum())
                if calls:
                    table[name] = {
                        "calls": calls,
                        "total_s": float(duration[sel].sum()),
                        "self_s": float(own[sel].sum()),
                    }
            out[kind] = table
        return out

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), run_kinds=np.array(self.run_kinds), **a)
