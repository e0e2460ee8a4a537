"""The four benchmark workloads: closed loops, one client, one process.

A *unit* is the work of one CLI call after the victim is loaded: it
builds its engine and attack afresh (so in-process caches start empty)
and runs one campaign, attack session, or defense grid.  The benchmark
seed picks the evaluation images from the 1,500-image test set and is
the campaign / study seed, so the same seed gives the same inputs.

Campaign units of one run repeat the same call, so every unit must emit
the same bytes; black-box sessions each draw fresh images and sensor
noise.  An *operation* is a campaign cell, or one black-box session.
Its payload is canonical JSON, compared exactly between units and
between untraced and traced runs.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Set

import numpy as np

from tracing import DEFENSES

#: Strike-bank size the ``repro campaign`` CLI plans with.
CAMPAIGN_BANK_CELLS = 5500
#: ``repro defend --skip-detection --tmr`` grid.
ARMS_BANKS = (3000, 5500, 8000)
ARMS_STRIKES = 4500
ARMS_IMAGES = 64
ARMS_LAYER = "conv2"
#: fp32 attacked accuracy must stay this close to fxp at the same seed
#: (ACCURACY_TOL of the backend-parity tests), compared on this many
#: images.  The tiers draw different fault streams, so the per-cell gap
#: is sampling noise: on 120 images it exceeded 0.08 for about 1 % of
#: seeds (worst 0.083, conv2), on 480 its worst over 20 seeds was 0.025.
#: A broken injector is off by 0.3 or more.
FP32_ACCURACY_TOL = 0.08
FP32_CHECK_IMAGES = 480
#: Black-box session: profiled layer order -> strikes, and the kinds
#: the profiler must report for them.
SESSION_TARGETS = ((0, 1800), (2, 4500), (3, 4500))
SESSION_KINDS = ("conv", "conv", "fc")
SESSION_IMAGES = 8
SESSION_TRACES = 3
#: Detector trigger must land at most this many TDC ticks after the
#: first layer starts, and not before it.
MAX_TRIGGER_LAG = 24


@dataclasses.dataclass
class UnitResult:
    """Outputs of one unit: payload per operation, and the operations
    that failed inside the unit (cell failures, session checks)."""

    ops: Dict[str, str]
    failed: Set[str]
    info: dict


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _sensor_and_attack(victim, seed: int, cells: int, config=None):
    """What the CLI builds for ``attack``/``campaign``/``defend``."""
    from repro.accel import AcceleratorEngine
    from repro.core import DeepStrike
    from repro.sensors import GateDelayModel, TDCSensor
    from repro.sensors.calibration import theta_for_target

    engine = AcceleratorEngine(victim.quantized, config=config,
                               rng=np.random.default_rng(seed))
    attack = DeepStrike(engine, bank_cells=cells,
                        rng=np.random.default_rng(seed + 1))
    delay_model = GateDelayModel(engine.config.delay)
    theta = theta_for_target(engine.config.tdc, delay_model, voltage=0.9867)
    sensor = TDCSensor(engine.config.tdc, delay_model, theta,
                       rng=np.random.default_rng(seed + 2))
    return engine, attack, sensor


def _campaign_ops(result) -> UnitResult:
    ops = {}
    for sweep in result.sweeps:
        for outcome in sweep.outcomes:
            ops[f"{sweep.target_layer}@{outcome.n_strikes}"] = _canonical(
                dataclasses.asdict(outcome))
    failed = set()
    for failure in result.failures:
        key = f"{failure.target_layer}@{failure.n_strikes}"
        ops[key] = _canonical(dataclasses.asdict(failure))
        failed.add(key)
    return UnitResult(ops, failed,
                      {"max_drops": result.max_drops(),
                       "cells": len(ops) - len(failed)})


def _subset(victim, seed: int, n: int):
    rng = np.random.default_rng(seed)
    total = victim.dataset.test_images.shape[0]
    idx = np.sort(rng.choice(total, size=n, replace=False))
    return victim.dataset.test_images[idx], victim.dataset.test_labels[idx]


class Workload:
    name = ""
    #: Whether every unit of a run repeats the same inputs.
    repeats_inputs = True

    def __init__(self, victim, seed: int) -> None:
        self.victim = victim
        self.seed = seed

    def build(self, index: int = 0):
        """Engine, attack and sensor/study for one unit."""
        raise NotImplementedError

    def unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def check(self, reference: UnitResult) -> Set[str]:
        """Run-level checks on a reference unit, outside the timed
        region; returns the operation keys that failed."""
        return set()


class Fig5bCampaign(Workload):
    """``repro campaign`` on the Fig 5(b) grid: 17 cells, 120 images."""

    def __init__(self, victim, seed: int, dtype: str, stacked: bool,
                 name: str) -> None:
        super().__init__(victim, seed)
        from repro.core import CampaignSpec

        self.name = name
        self.dtype = dtype
        self.stacked = stacked
        self.spec = dataclasses.replace(CampaignSpec.fig5b_default(),
                                        eval_images=120, seed=seed)
        self.images, self.labels = _subset(victim, seed,
                                           self.spec.eval_images)

    def build(self, index: int = 0, dtype=None):
        from repro.config import default_config

        config = dataclasses.replace(default_config(),
                                     dtype_policy=dtype or self.dtype)
        return _sensor_and_attack(self.victim, self.seed,
                                  CAMPAIGN_BANK_CELLS, config)

    def _run(self, spec, dtype: str, stacked: bool, images=None,
             labels=None):
        from repro.core import campaign

        _, attack, _ = self.build(dtype=dtype)
        if images is None:
            images, labels = self.images, self.labels
        return campaign.run_campaign(attack, images, labels, spec,
                                     stacked=stacked)

    def unit(self, index: int) -> UnitResult:
        return _campaign_ops(self._run(self.spec, self.dtype, self.stacked))

    def _sampled_column(self):
        rng = np.random.default_rng([self.seed, 1])
        layer, counts = self.spec.sweeps[
            int(rng.integers(len(self.spec.sweeps)))]
        return dataclasses.replace(self.spec, sweeps=((layer, counts),),
                                   blind_counts=())

    def check(self, reference: UnitResult) -> Set[str]:
        column = self._sampled_column()
        if self.dtype == "fxp":
            # The stacked executor must reproduce the serial bytes.
            rerun = _campaign_ops(self._run(column, "fxp", True))
            return {key for key, payload in rerun.ops.items()
                    if reference.ops.get(key) != payload} | rerun.failed
        # fp32 tier: attacked accuracy within tolerance of fxp, on a
        # larger image set of the same seed (see FP32_CHECK_IMAGES).
        column = dataclasses.replace(column, eval_images=FP32_CHECK_IMAGES)
        images, labels = _subset(self.victim, self.seed, FP32_CHECK_IMAGES)
        fast = _campaign_ops(self._run(column, "fp32", True, images, labels))
        exact = _campaign_ops(self._run(column, "fxp", False, images,
                                        labels))
        bad = fast.failed | exact.failed
        for key, payload in exact.ops.items():
            want = json.loads(payload).get("attacked_accuracy")
            got = json.loads(fast.ops.get(key, "{}")).get("attacked_accuracy")
            if want is None or got is None \
                    or abs(got - want) > FP32_ACCURACY_TOL:
                bad.add(key)
        return bad


class BlackBoxSession(Workload):
    """One black-box attack session, as in examples/end_to_end_attack.py:
    profile, detect the start, compile/load schemes, plan from the
    profile, execute on fresh images."""

    name = "blackbox"
    repeats_inputs = False

    def _session_seed(self, index: int) -> int:
        return int(np.random.default_rng([self.seed, index]).integers(2**31))

    def build(self, index: int = 0):
        from repro.config import default_config

        seed = self._session_seed(index)
        return _sensor_and_attack(self.victim, seed, CAMPAIGN_BANK_CELLS,
                                  default_config(seed=seed))

    def unit(self, index: int) -> UnitResult:
        from repro.accel.activity import STALL_CURRENT, inference_current_trace
        from repro.core import DNNStartDetector, SignalRAM
        from repro.errors import ReproError
        from repro.fpga import PowerDistributionNetwork

        key = f"session{index}"
        seed = self._session_seed(index)
        engine, attack, sensor = self.build(index)
        config = engine.config
        try:
            library = attack.profile_victim(sensor, nominal_readout=92,
                                            n_traces=SESSION_TRACES)
            # A fresh victim inference seen through the sensor.
            current = inference_current_trace(
                engine.schedule, config.accel, config.clock,
                rng=np.random.default_rng(seed + 3))
            pdn = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                           rng=np.random.default_rng(seed + 4))
            pdn.settle(STALL_CURRENT)
            readouts = sensor.sample_trace(pdn.simulate(current))
            detector = DNNStartDetector(l_carry=config.tdc.l_carry)
            trigger = detector.find_trigger(readouts)
            first_tick = (engine.schedule.windows()[0].start_cycle
                          * config.clock.ticks_per_victim_cycle)
            lag = None if trigger is None else trigger - first_tick

            images, labels = _subset(self.victim, seed + 5, SESSION_IMAGES)
            ram = SignalRAM()
            outcomes = []
            for order, strikes in SESSION_TARGETS:
                plan = attack.plan_from_profile(library, order, strikes)
                ram.load_scheme(plan.scheme)
                outcome = attack.execute(images, labels, plan)
                outcomes.append([dataclasses.asdict(outcome),
                                 plan.wasted_strikes, ram.loaded_bits])
        except ReproError as exc:
            return UnitResult({key: f"{type(exc).__name__}: {exc}"}, {key},
                              {"cells": 0})
        kinds = tuple(library[order].kind_guess
                      for order, _ in SESSION_TARGETS)
        payload = _canonical({
            "library": [dataclasses.asdict(sig) for sig in library],
            "trigger": trigger, "outcomes": outcomes})
        # A missing or late trigger fails the session, and so does one
        # during the idle lead-in (lag < 0): a false alarm on noise.
        ok = (kinds == SESSION_KINDS and lag is not None
              and 0 <= lag <= MAX_TRIGGER_LAG)
        return UnitResult({key: payload}, set() if ok else {key},
                          {"trigger_lag": lag, "cells": len(outcomes)})


class ArmsRace(Workload):
    """``repro defend --skip-detection --tmr``: banks x none/recover/tmr,
    4500 conv2 strikes on 64 images, run as a campaign."""

    name = "arms-race"

    def __init__(self, victim, seed: int) -> None:
        super().__init__(victim, seed)
        self.images, self.labels = _subset(victim, seed, ARMS_IMAGES)

    def build(self, index: int = 0):
        from repro.core.executor import DefenseGridSpec, WorkerRecipe
        from repro.defense import ArmsRaceStudy, resolve_defense

        engine, attack, _ = _sensor_and_attack(self.victim, self.seed,
                                               max(ARMS_BANKS))
        race = ArmsRaceStudy(self.victim.quantized, self.images, self.labels,
                             config=attack.config, target_layer=ARMS_LAYER,
                             seed=self.seed)
        spec = race.campaign_spec([(c, ARMS_STRIKES) for c in ARMS_BANKS],
                                  [(label, resolve_defense(label))
                                   for label in DEFENSES])
        recipe = WorkerRecipe.from_attack(
            attack, defense=DefenseGridSpec(
                enabled=True, input_shape=tuple(engine.input_shape)))
        return attack, spec, recipe

    def unit(self, index: int) -> UnitResult:
        from repro.core import campaign

        attack, spec, recipe = self.build()
        return _campaign_ops(campaign.run_campaign(
            attack, self.images, self.labels, spec, recipe=recipe))

    def check(self, reference: UnitResult) -> Set[str]:
        from repro.defense import ArmsRaceStudy, arms_target, resolve_defense

        rng = np.random.default_rng([self.seed, 2])
        bank = ARMS_BANKS[int(rng.integers(len(ARMS_BANKS)))]
        label = DEFENSES[int(rng.integers(len(DEFENSES)))]
        study = ArmsRaceStudy(self.victim.quantized, self.images, self.labels,
                              target_layer=ARMS_LAYER, seed=self.seed)
        cell = study.run_cell(bank, ARMS_STRIKES, resolve_defense(label),
                              label)
        key = f"{arms_target(ARMS_LAYER, label, bank)}@{ARMS_STRIKES}"
        ok = reference.ops.get(key) == _canonical(dataclasses.asdict(cell))
        return set() if ok else {key}


def make(name: str, victim, seed: int) -> Workload:
    if name == "fig5b-fxp":
        return Fig5bCampaign(victim, seed, "fxp", False, name)
    if name == "fig5b-fp32":
        return Fig5bCampaign(victim, seed, "fp32", True, name)
    if name == "blackbox":
        return BlackBoxSession(victim, seed)
    if name == "arms-race":
        return ArmsRace(victim, seed)
    raise ValueError(f"unknown workload {name!r}")
