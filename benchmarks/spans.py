"""Span recorder and the wrap points that trace polyest from the outside.

A span records its name, start, end and parent (the span open when it
started).  Spans are kept in memory in flat arrays and written out at the
end of a traced run.  A span's self time is its duration minus the time its
child spans cover; because the program is single-threaded, children nest
inside their parent, so the covered time is the sum of the children's
durations and is accumulated as each child closes.

``Tracer.install`` replaces the names callers look up at call time (module
attributes and class attributes) with timing wrappers; ``uninstall`` puts
the originals back.  Wrappers pass arguments and results through unchanged.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

_clock = time.perf_counter


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._covered: list[float] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.open_count: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._covered.append(0.0)
        self.open_count[name] += 1
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        t = _clock()
        self.end[idx] = t
        self._stack.pop()
        covered = self._covered.pop()
        duration = t - self.start[idx]
        if self._covered:
            self._covered[-1] += duration
        name = self.names[self.name_of[idx]]
        self.open_count[name] -= 1
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered

    def write(self, path: str) -> None:
        """One line per span: id, name, start, end, parent id (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]}\n"
                )


class Tracer:
    """Wraps polyest's public entry points and counts work at each boundary."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self.counts: Counter = Counter()
        self.cluster_sizes: list[int] = []
        self._restore: list[tuple] = []
        self._pilot_next = False

    def _wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        rec = self.rec

        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            idx = rec.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                rec.close(idx)
            if post:
                post(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, raw))

    def install(self) -> None:
        import networkx

        from polyest import estimator, matcher, ratedb, surface_sim

        def mc_pre(args, kwargs):
            shots = kwargs.get("shots", args[2] if len(args) > 2 else None)
            rounds = kwargs.get("rounds", args[3] if len(args) > 3 else None)
            sr = shots * rounds
            self.counts["shot_rounds"] += sr
            if self.rec.open_count["ratedb.generate"]:
                self.counts["gen_shot_rounds"] += sr
                if self._pilot_next:
                    self.counts["pilot_shot_rounds"] += sr
            self._pilot_next = False

        def graphs_post(args, kwargs, result, state):
            # generate builds graphs once per point and runs the pilot next.
            self._pilot_next = bool(self.rec.open_count["ratedb.generate"])

        def decode_pre(args, kwargs):
            n = len(kwargs.get("events", args[1] if len(args) > 1 else ()))
            self.counts["events_total"] += n
            self.counts["empty_decodes"] += n == 0

        def blossom_pre(args, kwargs):
            self.cluster_sizes.append(args[0].number_of_nodes() // 2)

        def prepare_pre(args, kwargs):
            return args[0].T

        def prepare_post(args, kwargs, result, t_before):
            self.counts["table_builds"] += args[0].T > t_before

        for module in (surface_sim, ratedb):
            self._wrap(module, "run_monte_carlo", "surface_sim.run_monte_carlo", pre=mc_pre)
            self._wrap(module, "enumerate_single_faults", "surface_sim.enumerate_single_faults")
        self._wrap(ratedb, "generate", "ratedb.generate")
        self._wrap(ratedb.RateDatabase, "load", "ratedb.load")
        self._wrap(ratedb.RateDatabase, "save", "ratedb.save")
        self._wrap(ratedb.RateDatabase, "get", "ratedb.get")
        self._wrap(matcher, "build_graphs", "matcher.build_graphs", post=graphs_post)
        self._wrap(matcher, "min_weight_perfect_matching", "matcher.decode", pre=decode_pre)
        self._wrap(matcher, "solve_matching", "matcher.solve_matching")
        self._wrap(matcher.MatchingGraph, "prepare", "matcher.prepare",
                   pre=prepare_pre, post=prepare_post)
        self._wrap(networkx, "max_weight_matching", "matcher.blossom", pre=blossom_pre)
        self._wrap(estimator, "estimate", "estimator.estimate")
        self._wrap(estimator, "solve_distance", "estimator.solve_distance")
        self._wrap(estimator, "interpolate", "estimator.interpolate")
        self._wrap(estimator, "reduce", "error_model.reduce")
        self._wrap(estimator, "ladder_neighbors", "ratedb.ladder_neighbors")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded, in seconds and counts."""
        rec, c = self.rec, self.counts
        calls, total, own = rec.calls, rec.total_s, rec.self_s
        mc_self = own["surface_sim.run_monte_carlo"]
        sizes = sorted(self.cluster_sizes)
        gen_sr = c["gen_shot_rounds"]
        return {
            "surface_sim.enumerate_s": total["surface_sim.enumerate_single_faults"],
            "surface_sim.mc_calls": calls["surface_sim.run_monte_carlo"],
            "surface_sim.shot_rounds": c["shot_rounds"],
            "surface_sim.self_s": mc_self,
            "surface_sim.self_ns_per_shot_round":
                mc_self / c["shot_rounds"] * 1e9 if c["shot_rounds"] else 0.0,
            "matcher.blossom_calls": calls["matcher.blossom"],
            "matcher.blossom_s": total["matcher.blossom"],
            "matcher.blossom_cluster_p50": sizes[len(sizes) // 2] if sizes else 0,
            "matcher.blossom_cluster_max": sizes[-1] if sizes else 0,
            "matcher.solve_self_s": own["matcher.solve_matching"],
            "matcher.decode_calls": calls["matcher.decode"],
            "matcher.empty_decodes": c["empty_decodes"],
            "matcher.events_total": c["events_total"],
            "matcher.decode_self_s": own["matcher.decode"],
            "matcher.build_graphs_s": total["matcher.build_graphs"],
            "matcher.prepare_calls": calls["matcher.prepare"],
            "matcher.table_builds": c["table_builds"],
            "matcher.prepare_s": total["matcher.prepare"],
            "ratedb.generate_self_s": own["ratedb.generate"],
            "ratedb.save_s": total["ratedb.save"],
            "ratedb.pilot_share": c["pilot_shot_rounds"] / gen_sr if gen_sr else 0.0,
            "ratedb.load_s": total["ratedb.load"],
            "ratedb.get_calls": calls["ratedb.get"],
            "ratedb.ladder_neighbors_calls": calls["ratedb.ladder_neighbors"],
            "ratedb.ladder_neighbors_s": total["ratedb.ladder_neighbors"],
            "estimator.estimate_calls": calls["estimator.estimate"],
            "estimator.solve_calls": calls["estimator.solve_distance"],
            "estimator.interpolate_calls": calls["estimator.interpolate"],
            "estimator.interpolate_self_s": own["estimator.interpolate"],
            "estimator.query_self_s":
                own["estimator.estimate"] + own["estimator.solve_distance"],
            "error_model.reduce_calls": calls["error_model.reduce"],
            "error_model.reduce_s": total["error_model.reduce"],
            "bench.unattributed_s": wall_s - sum(own.values()),
        }
