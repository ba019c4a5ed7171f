"""In-memory spans around xorpso's layer boundaries, and the per-layer metrics.

A :class:`Tracer` records one span per call at each boundary the benchmark
watches: the pipeline phases it calls directly, and the public functions it
wraps where the swarm looks them up (``xorpso.swarm.evaluate_particle``,
``xorpso.swarm.knn_accuracy``, ``xorpso.classify.cdist`` and
``xorpso.swarm.xor_velocity_update``).  Spans stay in memory until the run
ends.  The module imports only the standard library, so it can be loaded
before the package import is timed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager

# span names of the wrapped calls
EVALUATE = "swarm.evaluate_particle"
KNN = "classify.knn_accuracy"
CDIST = "classify.cdist"
VELOCITY = "swarm.xor_velocity_update"
TRACE_WRITE = "swarm.on_record"

BYTES_PER_FLOAT = 8


class Tracer:
    """Collects spans ``{name, start, end, **attrs}`` in memory.

    Times are ``time.perf_counter()`` seconds.  The swarm evaluates one
    particle at a time (the library's default ``workers=1``), so spans of
    one name never overlap.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block; it may add attributes to the yielded dict."""
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self.spans.append({"name": name, "start": start, "end": end, **attrs})

    def timed(self, name: str, fn, attrs=None):
        """``fn`` wrapped so that every call records a span.

        ``attrs`` is worked out inside the span, so its cost is never
        counted as time between spans.
        """

        def wrapper(*args, **kwargs):
            with self.span(name) as extra:
                if attrs:
                    extra.update(attrs(*args, **kwargs))
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` by a timed wrapper until :meth:`unpatch`."""
        inner = getattr(module, attr)
        self._patched.append((module, attr, inner))
        setattr(module, attr, self.timed(name, inner, attrs))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, inner = self._patched.pop()
            setattr(module, attr, inner)

    def install(self, xorpso) -> None:
        """Wrap the four public calls the swarm and classifier look up."""
        self.patch(xorpso.swarm, "evaluate_particle", EVALUATE, _mask_attrs)
        self.patch(xorpso.swarm, "knn_accuracy", KNN)
        self.patch(xorpso.classify, "cdist", CDIST, _cdist_attrs)
        self.patch(xorpso.swarm, "xor_velocity_update", VELOCITY)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def _mask_attrs(mask, *args, **kwargs) -> dict:
    return {
        "selected": int((mask != 0).sum()),
        "mask": hashlib.blake2b(mask.tobytes(), digest_size=16).hexdigest(),
    }


def _cdist_attrs(valid, train, *args, **kwargs) -> dict:
    return {"n_val": valid.shape[0], "n_train": train.shape[0],
            "selected": valid.shape[1]}


def layer_metrics(tracer: Tracer, swarm_calls, population: int) -> dict:
    """Per-layer metrics from one traced run.

    ``swarm_calls`` names the phase spans of the optimizer calls.  A metric
    whose wrapper saw no call is left out, never reported as 0, so a change
    that stops calling a layer reads as missing rather than as a speed-up.
    Values named ``*_gflop``, ``*_mb`` and ``*_kb`` under ``classify`` are
    computed from array shapes, not measured.
    """
    by_name: dict[str, list[dict]] = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)

    def dur(span):
        return span["end"] - span["start"]

    out: dict[str, float] = {}
    for phase, key, scale in (
        ("xorpso.import", "xorpso.import_s", 1.0),
        ("data.generate", "data.generate_ms", 1e3),
        ("data.split", "data.split_ms", 1e3),
        ("rank.score", "rank.score_ms", 1e3),
        ("rank.seed", "rank.seed_ms", 1e3),
    ):
        if phase in by_name:
            out[key] = sum(map(dur, by_name[phase])) * scale
    if "rank.score" in by_name:
        out["rank.features_scored"] = sum(s["features"] for s in by_name["rank.score"])

    knn = by_name.get(KNN, [])
    cdist = by_name.get(CDIST, [])
    if knn:
        eval_ms = [dur(s) * 1e3 for s in knn]
        out["classify.evals"] = len(knn)
        out["classify.busy_s"] = sum(eval_ms) / 1e3
        out["classify.eval_ms_p50"] = statistics.median(eval_ms)
        # a percentile is reported only with at least ten samples beyond it
        if len(eval_ms) >= 500:
            out["classify.eval_ms_p98"] = statistics.quantiles(
                eval_ms, n=50, method="inclusive")[-1]
    if cdist:
        out["classify.distance_s"] = sum(map(dur, cdist))
        out["classify.mean_selected"] = statistics.fmean(s["selected"] for s in cdist)
        out["classify.distance_gflop"] = sum(
            3 * s["n_train"] * s["n_val"] * s["selected"] for s in cdist) / 1e9
        out["classify.gather_mb"] = sum(
            (s["n_train"] + s["n_val"]) * s["selected"] * BYTES_PER_FLOAT
            for s in cdist) / 1e6
        out["classify.dist_matrix_kb"] = statistics.median(
            s["n_train"] * s["n_val"] * BYTES_PER_FLOAT / 1024 for s in cdist)
    if knn and cdist:
        out["classify.select_vote_s"] = out["classify.busy_s"] - out["classify.distance_s"]

    evals = by_name.get(EVALUATE, [])
    writes = by_name.get(TRACE_WRITE, [])
    if evals:
        out["swarm.evals_requested"] = len(evals)
        out["swarm.empty_masks"] = sum(s["selected"] == 0 for s in evals)
        # the share a mask cache living for the whole run could skip: every
        # evaluation of a mask already evaluated, by either optimizer
        out["swarm.repeat_eval_share"] = 1 - len({s["mask"] for s in evals}) / len(evals)
    if by_name.get(VELOCITY):
        out["swarm.velocity_s"] = sum(map(dur, by_name[VELOCITY]))
    if writes:
        out["swarm.trace_write_ms"] = sum(map(dur, writes)) * 1e3

    calls = [s for name in swarm_calls for s in by_name.get(name, [])]
    if evals and writes and calls:
        init_s = move_s = 0.0
        iter_ms = []
        for call in calls:
            inside = sorted(
                (s for s in evals if call["start"] <= s["start"] < call["end"]),
                key=lambda s: s["start"])
            init_end = max(s["end"] for s in inside[:population])
            init_s += init_end - call["start"]
            # an iteration runs from the end of the previous on_record call
            # (or of the initial evaluation) to the start of its own
            begin = init_end
            for write in sorted(
                (w for w in writes if call["start"] <= w["start"] < call["end"]),
                key=lambda w: w["start"]):
                iter_ms.append((write["start"] - begin) * 1e3)
                move_s += (write["start"] - begin) - sum(
                    dur(s) for s in inside if begin <= s["start"] < write["start"])
                begin = write["end"]
        out["swarm.init_eval_s"] = init_s
        out["swarm.iter_ms_p50"] = statistics.median(iter_ms)
        out["swarm.move_s"] = move_s
    return out
