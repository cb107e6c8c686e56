"""Span recorder for the traced benchmark run.

The recorder wraps the package's public callables where their callers look
them up (module globals and class attributes), so the package itself is not
edited.  Every call becomes a span; its self time is its duration minus the
durations of the spans it caused.  Spans are folded into a call-path tree as
they end, which keeps memory flat however many rungs or slots a run takes;
spans up to ``RAW_DEPTH`` levels below the root are also kept one by one.
Both are written out when the run ends.
"""

from __future__ import annotations

import functools
import time

import numpy as np

RAW_DEPTH = 2


class Node:
    """Spans that share one call path: counts and summed times."""

    __slots__ = ("name", "children", "calls", "points", "total_s", "self_s")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.points = 0
        self.total_s = 0.0
        self.self_s = 0.0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self, parent: "Node | None" = None):
        """Yield (parent, node) for this node and every node below it."""
        yield parent, self
        for node in self.children.values():
            yield from node.walk(self)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "points": self.points,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "children": [node.as_dict() for node in self.children.values()],
        }


def _size_of(index: int, keyword: str):
    def points(args, kwargs) -> int:
        value = kwargs[keyword] if keyword in kwargs else args[index]
        return int(np.size(value))

    return points


def _draws(args, kwargs) -> int:
    size = kwargs["size"] if "size" in kwargs else (args[2] if len(args) > 2 else None)
    return 1 if size is None else int(np.prod(size))


def _slots(args, kwargs) -> int:
    return int(kwargs["n"] if "n" in kwargs else args[3])


class Recorder:
    """Records spans of wrapped callables between ``start`` and ``stop``."""

    def __init__(self):
        self.root = Node("trace.root")
        self.raw: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [node, child seconds, raw span id]
        self._patches: list[tuple[object, str, object]] = []
        self._started = 0.0
        self.wall_s = 0.0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, points=None, by_kind: bool = False):
        stack, raw, clock = self._stack, self.raw, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name + "." + args[0].kind if by_kind else name
            parent = stack[-1]
            node = parent[0].child(label)
            span_id = -1
            if len(stack) <= RAW_DEPTH:
                span_id = len(raw)
                raw.append((span_id, parent[2], label, 0.0, 0.0))
            frame = [node, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                parent[1] += duration
                node.calls += 1
                node.total_s += duration
                node.self_s += duration - frame[1]
                if points is not None:
                    node.points += points(args, kwargs)
                if span_id >= 0:
                    raw[span_id] = (span_id, parent[2], label, start - self._started, end - self._started)

        return wrapper

    def _patch(self, owner, attr: str, name: str, points=None, by_kind: bool = False):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, points, by_kind))

    def install(self) -> None:
        """Wrap the package's layer boundaries where their callers find them."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        from ehpolicy import arrivals, evaluation, metrics, policies, rewards

        self._patch(metrics, "sweep", "metrics.sweep")
        self._patch(metrics, "make_policy", "metrics.make_policy")
        self._patch(metrics, "from_mcr", "arrivals.calibrate")
        self._patch(metrics, "from_nmcr", "arrivals.calibrate")
        self._patch(metrics, "bernoulli_reward", "evaluation.bernoulli_reward")
        self._patch(metrics, "build_mdp", "evaluation.build_mdp")
        self._patch(metrics, "optimal_gain", "evaluation.optimal_gain")
        self._patch(metrics, "policy_gain", "evaluation.policy_gain")
        self._patch(metrics, "simulate", "evaluation.simulate", _slots)
        self._patch(evaluation, "simulate", "evaluation.simulate", _slots)
        self._patch(policies, "ladder_sum", "rewards.ladder_sum", _size_of(2, "x"))
        self._patch(
            policies.StationaryPolicy, "evaluate", "policies.evaluate", _size_of(1, "x"), by_kind=True
        )
        self._patch(rewards.RewardFunction, "value", "rewards.value", _size_of(1, "u"))
        self._patch(arrivals.ArrivalDistribution, "discretize", "arrivals.discretize")
        for family in (
            arrivals.BernoulliArrivals,
            arrivals.LimitedUniformArrivals,
            arrivals.LimitedExponentialArrivals,
        ):
            self._patch(family, "sample", "arrivals.sample", _draws)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------------

    def start(self) -> None:
        self._stack[:] = [[self.root, 0.0, -1]]
        self._started = time.perf_counter()

    def stop(self) -> float:
        """End the root span; its self time is the wall time no span covers."""
        self.wall_s = time.perf_counter() - self._started
        frame = self._stack.pop()
        self.root.calls = 1
        self.root.total_s = self.wall_s
        self.root.self_s = self.wall_s - frame[1]
        return self.wall_s

    def as_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "tree": self.root.as_dict(),
            "raw_spans": [
                {"id": i, "parent": p, "name": n, "start_s": a, "end_s": b}
                for i, p, n, a, b in self.raw
            ],
        }


# Per-layer metrics, in the order BENCHMARK.json lists them.
EVALUATE_KINDS = ("maximin_awgn", "maximin_generic", "fixed_fraction", "greedy")
LAYER_METRICS: list[tuple[str, str]] = (
    [("rewards.value." + k, u) for k, u in (("calls", "count"), ("points", "count"), ("self_s", "s"))]
    + [
        ("rewards.ladder_sum." + k, u)
        for k, u in (("calls", "count"), ("points", "count"), ("self_s", "s"), ("bisection_steps", "count"))
    ]
    + [
        (f"policies.evaluate.{kind}.{k}", u)
        for kind in EVALUATE_KINDS
        for k, u in (("calls", "count"), ("points", "count"), ("self_s", "s"))
    ]
    + [
        ("evaluation.bernoulli_reward.calls", "count"),
        ("evaluation.bernoulli_reward.self_s", "s"),
        ("evaluation.series.rungs", "count"),
        ("evaluation.optimal_gain.calls", "count"),
        ("evaluation.optimal_gain.self_s", "s"),
        ("evaluation.policy_gain.calls", "count"),
        ("evaluation.policy_gain.self_s", "s"),
        ("evaluation.build_mdp.calls", "count"),
        ("evaluation.build_mdp.self_s", "s"),
        ("evaluation.simulate.calls", "count"),
        ("evaluation.simulate.self_s", "s"),
        ("evaluation.simulate.us_per_slot", "us"),
        ("arrivals.sample.calls", "count"),
        ("arrivals.sample.draws", "count"),
        ("arrivals.sample.self_s", "s"),
        ("arrivals.discretize.calls", "count"),
        ("arrivals.discretize.self_s", "s"),
        ("arrivals.calibrate.calls", "count"),
        ("arrivals.calibrate.self_s", "s"),
        ("metrics.sweep.calls", "count"),
        ("metrics.sweep.self_s", "s"),
        ("metrics.make_policy.calls", "count"),
        ("metrics.make_policy.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.root_self_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def layer_values(rec: Recorder, rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics per traced round, from the recorder's call-path tree."""
    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    bisection = rungs = 0
    for parent, node in rec.root.walk():
        if parent is None:
            continue
        calls[node.name] = calls.get(node.name, 0) + node.calls
        points[node.name] = points.get(node.name, 0) + node.points
        self_s[node.name] = self_s.get(node.name, 0.0) + node.self_s
        total_s[node.name] = total_s.get(node.name, 0.0) + node.total_s
        if node.name == "rewards.ladder_sum" and parent.name == "policies.evaluate.maximin_generic":
            bisection += node.calls
        if node.name.startswith("policies.evaluate.") and parent.name == "evaluation.bernoulli_reward":
            rungs += node.calls

    def count(value: int):
        share = value / rounds
        return int(share) if share.is_integer() else share

    slots = points.get("evaluation.simulate", 0)
    derived = {
        "rewards.ladder_sum.bisection_steps": count(bisection),
        "evaluation.series.rungs": count(rungs),
        "evaluation.simulate.us_per_slot": (
            1e6 * total_s["evaluation.simulate"] / slots if slots else 0.0
        ),
        "trace.wall_s": rec.wall_s / rounds,
        "trace.root_self_s": rec.root.self_s / rounds,
        "trace.overhead_s": overhead_s,
    }
    out: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "calls":
            out[name] = count(calls.get(base, 0))
        elif kind in ("points", "draws"):
            out[name] = count(points.get(base, 0))
        else:
            out[name] = self_s.get(base, 0.0) / rounds
    return out
