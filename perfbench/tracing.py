"""Out-of-program tracing: spans around calls into the package's modules.

The benchmark wraps public functions of the ``repro`` package at run
time, from its own code, so the program under test is unchanged.  Each
wrapped call becomes a span ``[name, start, end, parent, unit, attrs]``
kept in memory; :meth:`Tracer.write_jsonl` writes them once at the end.
A layer's self time is its span duration minus the durations of its
direct child spans (calls are single-threaded, so children nest).

Wrappers draw no randomness and pass arguments and results through
untouched; the benchmark checks that traced units reproduce the
untraced outputs byte for byte.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span layout (lists, to keep per-call cost low).
NAME, START, END, PARENT, UNIT, ATTRS = range(6)

#: Targets of the engine-attack rows; a strike train landing in more
#: than one layer (the blind baseline's spray) is reported as "blind".
ENGINE_TARGETS = ("conv1", "pool1", "conv2", "fc1", "blind")
DEFENSES = ("none", "recover", "tmr")


class Tracer:
    """Records nested spans; installs and removes method wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.unit: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def current(self) -> Optional[list]:
        return self.spans[self._stack[-1]] if self._stack else None

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.unit, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, post=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a callable ``(args, kwargs) -> name``
        returning None to pass the call through without a span.
        ``post(attrs, args, kwargs, result)`` records counts on the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                return original(*args, **kwargs)
            span = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if post is not None:
                post(span[ATTRS], args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    {"name": span[NAME], "start": span[START],
                     "end": span[END], "parent": span[PARENT],
                     "unit": span[UNIT], "attrs": span[ATTRS]}) + "\n")

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out: Dict[str, float] = defaultdict(float)
        for k, span in enumerate(self.spans):
            out[span[NAME]] += span[END] - span[START] - child[k]
        return out

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += span[END] - span[START]
        return out

    def attr_sums(self) -> Dict[str, float]:
        """``"<span name>.<attr>"`` -> sum of that attribute over spans."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            for key, value in span[ATTRS].items():
                out[f"{span[NAME]}.{key}"] += value
        return out


def _struck_target(struck) -> str:
    layers = {s.layer_name for s in struck if s.count > 0}
    if not layers:
        return "idle"  # no strike landed; not reported
    return layers.pop() if len(layers) == 1 else "blind"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every module the benchmark names.

    Must run after ``repro`` is imported.  Calls that enter through the
    wrapped attributes are traced; ``run_campaign`` and
    ``get_pretrained`` are patched on their defining modules, so the
    benchmark calls them through those modules.
    """
    from repro import zoo
    from repro.accel import AcceleratorEngine
    from repro.core import (AttackScheme, BlindAttack, DeepStrike,
                            DNNStartDetector, SideChannelProfiler,
                            SignalRAM)
    from repro.core import campaign
    from repro.defense import HardenedAcceleratorEngine
    from repro.fpga import PowerDistributionNetwork
    from repro.sensors import TDCSensor

    def campaign_post(attrs, args, kwargs, result):
        attrs["cells"] = sum(len(s.outcomes) for s in result.sweeps)
        attrs["failed"] = len(result.failures)

    def plans_post(attrs, args, kwargs, result):
        plans = result if isinstance(result, list) else [result]
        attrs["plans"] = len(plans)
        attrs["requested"] = sum(p.n_strikes_requested for p in plans)
        attrs["wasted"] = sum(p.wasted_strikes for p in plans)

    def engine_attack_name(args, kwargs):
        struck = args[3] if len(args) > 3 else kwargs["struck"]
        return f"engine.attack.{_struck_target(struck)}"

    def images_post(attrs, args, kwargs, result):
        attrs["images"] = int(args[1].shape[0])

    def many_post(attrs, args, kwargs, result):
        attrs["images"] = int(args[1].shape[0]) * len(args[3])

    def defense_name(args, kwargs):
        # Per-batch calls inside engine.attack belong to that span; a
        # direct call is one arms-race cell on a (defended) engine.
        parent = tracer.current()
        if parent is not None and parent[NAME].startswith("engine.attack"):
            return None
        engine = args[0]
        if not isinstance(engine, HardenedAcceleratorEngine):
            return "defense.attack.none"
        recovery = engine.config.recovery
        return "defense.attack." + ("tmr" if recovery.tmr_final_fc
                                    else "recover")

    def defense_post(attrs, args, kwargs, result):
        stats = getattr(args[0], "stats", None)
        if stats is not None:
            attrs["razor_flags"] = stats.razor_flags
            attrs["replays"] = stats.replays
            attrs["exhausted"] = stats.exhausted
            attrs["replay_overhead"] = stats.overhead_fraction
            attrs["cells"] = 1

    def length_post(key):
        def post(attrs, args, kwargs, result):
            attrs[key] = len(result)
        return post

    def ticks_post(attrs, args, kwargs, result):
        attrs["ticks"] = int(result.size)

    tracer.wrap(zoo, "get_pretrained", "zoo.get_pretrained")
    tracer.wrap(campaign, "run_campaign", "campaign.run", campaign_post)
    tracer.wrap(AcceleratorEngine, "clean_stage_codes", "engine.clean")
    tracer.wrap(AcceleratorEngine, "accuracy_under_attack",
                engine_attack_name, images_post)
    tracer.wrap(AcceleratorEngine, "accuracy_under_attack_many",
                "engine.attack_many", many_post)
    tracer.wrap(AcceleratorEngine, "predict_under_attack", defense_name,
                defense_post)
    tracer.wrap(HardenedAcceleratorEngine, "calibrate", "defense.calibrate")
    for attr in ("plan_for_layer", "plan_for_layers", "plan_from_profile"):
        tracer.wrap(DeepStrike, attr, "attack.plan", plans_post)
    tracer.wrap(BlindAttack, "plan_random", "attack.plan", plans_post)
    tracer.wrap(DeepStrike, "profile_victim", "attack.profile_victim")
    tracer.wrap(DeepStrike, "execute", "attack.execute")
    tracer.wrap(PowerDistributionNetwork, "simulate", "pdn.simulate",
                ticks_post)
    tracer.wrap(PowerDistributionNetwork, "simulate_batch", "pdn.simulate",
                ticks_post)
    tracer.wrap(TDCSensor, "sample_trace", "tdc.sample",
                length_post("samples"))
    tracer.wrap(SideChannelProfiler, "build_library",
                "profiler.build_library", length_post("layers"))
    tracer.wrap(DNNStartDetector, "find_trigger", "detector.find_trigger")
    tracer.wrap(AttackScheme, "compile", "scheme.compile",
                length_post("bits"))
    tracer.wrap(SignalRAM, "load_scheme", "signal_ram.load_scheme")


def layer_metrics(tracer: Tracer, units: int) -> Dict[str, float]:
    """Per-layer rows from the traced units: seconds and counts per unit."""
    total = tracer.totals()
    own = tracer.self_times()
    attrs = tracer.attr_sums()
    per = 1.0 / max(units, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "campaign.run_s": total["campaign.run"] * per,
        "campaign.self_s": own["campaign.run"] * per,
        "campaign.cells": attrs["campaign.run.cells"] * per,
        "campaign.cells_failed": attrs["campaign.run.failed"] * per,
        "attack.plan_s": total["attack.plan"] * per,
        "attack.plans": attrs["attack.plan.plans"] * per,
        "attack.wasted_frac": ratio(attrs["attack.plan.wasted"],
                                    attrs["attack.plan.requested"]),
        "pdn.simulate_s": total["pdn.simulate"] * per,
        "pdn.ticks": attrs["pdn.simulate.ticks"] * per,
        "pdn.ticks_per_s": ratio(attrs["pdn.simulate.ticks"],
                                 total["pdn.simulate"]),
        "engine.clean_s": total["engine.clean"] * per,
        "engine.attack_many_s": total["engine.attack_many"] * per,
        "tdc.sample_s": total["tdc.sample"] * per,
        "tdc.samples": attrs["tdc.sample.samples"] * per,
        "profiler.build_library_s": total["profiler.build_library"] * per,
        "profiler.layers_found": attrs["profiler.build_library.layers"] * per,
        "detector.find_trigger_s": total["detector.find_trigger"] * per,
        "scheme.compile_s": total["scheme.compile"] * per,
        "scheme.bits": attrs["scheme.compile.bits"] * per,
        "defense.calibrate_s": total["defense.calibrate"] * per,
        "defense.razor_flags": sum(attrs[f"defense.attack.{d}.razor_flags"]
                                   for d in DEFENSES) * per,
        "defense.replays": sum(attrs[f"defense.attack.{d}.replays"]
                               for d in DEFENSES) * per,
        "defense.exhausted": sum(attrs[f"defense.attack.{d}.exhausted"]
                                 for d in DEFENSES) * per,
        "defense.replay_overhead": ratio(
            sum(attrs[f"defense.attack.{d}.replay_overhead"]
                for d in DEFENSES),
            sum(attrs[f"defense.attack.{d}.cells"] for d in DEFENSES)),
    }
    for t in ENGINE_TARGETS:
        seconds = total[f"engine.attack.{t}"]
        out[f"engine.attack_s.{t}"] = seconds * per
        out[f"engine.strike_images_per_s.{t}"] = ratio(
            attrs[f"engine.attack.{t}.images"], seconds)
    for d in DEFENSES:
        out[f"defense.attack_s.{d}"] = total[f"defense.attack.{d}"] * per
    return out
