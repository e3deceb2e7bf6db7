"""Outside-in layer timing for netsel.

Every name in WRAPPED is replaced, in each netsel module that holds it, by
a wrapper that counts calls and accumulates self time: a call's duration
minus the time spent in wrapped calls made inside it. Modules that import a
function by name (``tasks`` imports ``egonet``, ``experiment`` imports
``louvain``) hold their own reference, so the wrapper is installed wherever
the original object is found, not only in its defining module. No code
inside ``src/netsel`` is changed.

Classes are timed through ``__init__`` (``learn.TrainingSet``) and methods
through the class attribute (``tasks.ClassifierPool.get``).
"""

from __future__ import annotations

import functools
import sys
import time

WRAPPED = (
    "data.ingest_events",
    "data.build_dataset",
    "synth.synth_bundle",
    "similarity.pairwise_intersections",
    "similarity.knn_graph",
    "similarity.threshold_graph",
    "graph.save_edgeset",
    "graph.load_edgeset",
    "graph.split_edges_random",
    "graph.incident_nonedges",
    "graph.bfs_neighborhood",
    "graph.egonet",
    "graph.induced_pairs",
    "community.louvain",
    "experiment.prepare_family",
    "experiment.load_batches",
    "experiment.stage_select",
    "experiment.stage_report",
    "tasks.assign_lp_eval",
    "tasks.resolve_neighborhood",
    "tasks.ensemble_members",
    "tasks.ensemble_vote",
    "tasks.ClassifierPool.get",
    "learn.TrainingSet",
    "learn.train_classifier",
    "learn.train_svm",
    "learn.train_rf",
    "learn.edge_features",
    "learn.LinearSVM.predict",
    "learn.RandomForest.predict",
    "learn.CoinClassifier.predict",
    "learn.ConstantClassifier.predict",
    "selection.records_from_batches",
    "selection.selection_stats",
    "selection.kendall_tau",
    "selection.match_mismatch",
    "selection.cross_task",
    "selection.node_difficulty",
)

# counts taken from return values: (wrapped name, count name, measure)
RETURN_COUNTS = (
    ("similarity.pairwise_intersections", "similarity.pairs",
     lambda r: len(r[0])),
    ("data.ingest_events", "data.events_parsed", len),
)


class Tracer:
    """Per-name call counts and self time for one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._inner: list[float] = []

    def wrap(self, name: str, fn, count=None):
        calls, self_s, counts, inner = (self.calls, self.self_s,
                                        self.counts, self._inner)
        calls[name] = 0
        self_s[name] = 0.0
        if count is not None:
            counts[count[0]] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[name] += dt - inner.pop()
                if inner:
                    inner[-1] += dt
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return wrapper

    def table(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def _netsel_modules():
    return [m for key, m in sorted(sys.modules.items())
            if (key == "netsel" or key.startswith("netsel.")) and m]


def install(tracer: Tracer) -> None:
    """Wrap every name in WRAPPED wherever a netsel module refers to it."""
    counts = {name: (count, measure)
              for name, count, measure in RETURN_COUNTS}
    modules = _netsel_modules()
    for name in WRAPPED:
        mod_name, _, attr_path = name.partition(".")
        owner = sys.modules[f"netsel.{mod_name}"]
        head, _, method = attr_path.partition(".")
        obj = getattr(owner, head)
        if method:
            setattr(obj, method,
                    tracer.wrap(name, getattr(obj, method)))
        elif isinstance(obj, type):
            obj.__init__ = tracer.wrap(name, obj.__init__)
        else:
            wrapper = tracer.wrap(name, obj, counts.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapper)
