"""Seeded scan of the start detector over fresh black-box sensor traces.

Each trace is built the way a black-box attack session builds its
sensor: a TDC calibrated with ``theta_for_target(..., voltage=0.9867)``,
and fresh seeds for the sensor jitter, the victim's activity jitter and
the PDN noise.  Only the idle lead-in and the first ticks of the first
layer are simulated.  Across the whole scan the detector must never
fire on idle noise, never miss the first layer, and always fire within
``MAX_LAG`` ticks of the layer start.
"""

import numpy as np

from repro.accel.activity import STALL_CURRENT, inference_current_trace
from repro.core import DNNStartDetector
from repro.fpga import PowerDistributionNetwork
from repro.sensors import GateDelayModel, TDCSensor
from repro.sensors.calibration import theta_for_target

SCAN_TRACES = 3000
SCAN_SEED = 16
#: Ticks of first-layer activity simulated after the idle lead-in.
LAYER_TICKS = 64
MAX_LAG = 24


def _lead_in_readouts(engine, config, theta, delay_model, seeds, ticks):
    sensor_seed, current_seed, pdn_seed = (int(s) for s in seeds)
    sensor = TDCSensor(config.tdc, delay_model, theta,
                       rng=np.random.default_rng(sensor_seed))
    current = inference_current_trace(
        engine.schedule, config.accel, config.clock,
        rng=np.random.default_rng(current_seed))[:ticks]
    pdn = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                   rng=np.random.default_rng(pdn_seed))
    pdn.settle(STALL_CURRENT)
    return sensor.sample_trace(pdn.simulate(current))


def test_no_false_or_missed_trigger_over_fresh_traces(lenet_engine, config):
    delay_model = GateDelayModel(config.delay)
    theta = theta_for_target(config.tdc, delay_model, voltage=0.9867)
    first_tick = (lenet_engine.schedule.windows()[0].start_cycle
                  * config.clock.ticks_per_victim_cycle)
    detector = DNNStartDetector(l_carry=config.tdc.l_carry)
    early, missing, late = [], [], []
    for k in range(SCAN_TRACES):
        seeds = np.random.default_rng([SCAN_SEED, k]).integers(2**31, size=3)
        readouts = _lead_in_readouts(lenet_engine, config, theta,
                                     delay_model, seeds,
                                     first_tick + LAYER_TICKS)
        trigger = detector.find_trigger(readouts)
        if trigger is None:
            missing.append(k)
        elif trigger < first_tick:
            early.append(k)
        elif trigger - first_tick > MAX_LAG:
            late.append(k)
    assert early == [], f"idle false alarms in traces {early}"
    assert missing == [], f"no trigger in traces {missing}"
    assert late == [], f"trigger later than {MAX_LAG} ticks in {late}"
