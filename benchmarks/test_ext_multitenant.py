"""E10 (extension): more than two tenants on the PDN.

The paper's future work asks how the attack behaves in richer
multi-tenant settings.  Two questions, answered on the simulated stack:

1. **Does the attack still work with a noisy third tenant?**  Yes — and
   the paper's own footnote predicts the direction: other tenants'
   consumption lowers the rail further, *strengthening* the injection.
2. **Does profiling survive the noise?**  Moderate background blurs the
   signatures but the layer library (count, order, kinds) survives.
"""

import numpy as np
import pytest

from conftest import once
from repro.analysis import fixed_table
from repro.core import DeepStrike
from repro.fpga import BackgroundActivity
from repro.sensors import GateDelayModel, TDCSensor
from repro.sensors.calibration import theta_for_target

#: A moderately busy neighbour (~9 mA mean, 25 mA bursts).
BACKGROUND = BackgroundActivity(base_current=2e-3, burst_current=25e-3,
                                burst_start_prob=0.004,
                                burst_stop_prob=0.008)


@pytest.fixture(scope="module")
def attack(lenet_engine):
    return DeepStrike(lenet_engine, rng=np.random.default_rng(70))


def test_ext_attack_under_background(benchmark, attack, eval_set):
    images, labels = eval_set

    def run():
        base_plan = attack.plan_for_layer("conv2", 4500)
        noisy_plan = attack.plan_under_background(base_plan, BACKGROUND,
                                                  seed=71)
        quiet = attack.execute(images, labels, base_plan)
        noisy = attack.execute(images, labels, noisy_plan)
        return base_plan, noisy_plan, quiet, noisy

    base_plan, noisy_plan, quiet, noisy = once(benchmark, run)

    rows = [
        ["two tenants (paper setup)", f"{base_plan.mean_strike_voltage():.4f}",
         f"{quiet.attacked_accuracy:.4f}"],
        ["three tenants (busy neighbour)",
         f"{noisy_plan.mean_strike_voltage():.4f}",
         f"{noisy.attacked_accuracy:.4f}"],
    ]
    print(f"\nE10 — conv2 @4500 strikes, clean accuracy "
          f"{quiet.clean_accuracy:.4f}:")
    print(fixed_table(["environment", "strike volts", "attacked acc"], rows))

    # Background load deepens strikes (paper footnote) and the attack
    # does at least as much damage.
    assert noisy_plan.mean_strike_voltage() \
        < base_plan.mean_strike_voltage()
    assert noisy.attacked_accuracy <= quiet.attacked_accuracy + 0.02
    assert noisy.accuracy_drop >= 0.05


def test_ext_profiling_under_background(benchmark, attack, config):
    delay_model = GateDelayModel(config.delay)
    theta = theta_for_target(config.tdc, delay_model, voltage=0.9867)
    sensor = TDCSensor(config.tdc, delay_model, theta,
                       rng=np.random.default_rng(72))

    nominal = config.tdc.calibration_target

    def profile_both():
        clean = attack.profile_victim(sensor, nominal_readout=nominal,
                                      n_traces=2)
        noisy = attack.profile_victim(sensor, nominal_readout=nominal,
                                      n_traces=2, background=BACKGROUND)
        return clean, noisy

    clean, noisy = once(benchmark, profile_both)

    print("\nE10 — profiled library, quiet vs busy neighbour:")
    for label, lib in (("quiet", clean), ("busy", noisy)):
        rows = [[f"#{s.order}", s.kind_guess, s.duration_ticks,
                 round(s.mean_droop, 2)] for s in lib]
        print(f"{label}:")
        print(fixed_table(["layer", "kind", "ticks", "droop"], rows))

    # The clean two-tenant profile recovers all five layers.
    assert len(clean) == 5
    # Under a busy neighbour the attack-relevant structure survives: the
    # deep-droop conv layers and the long FC layer are still recovered
    # with matching durations.  (The brief, shallow pooling layer may be
    # masked by bursts — an honest multi-tenant limitation.)
    assert len(noisy) >= 4
    clean_convs = sorted(s.duration_ticks for s in clean
                         if s.kind_guess == "conv")
    noisy_convs = sorted(s.duration_ticks for s in noisy
                         if s.kind_guess == "conv")
    assert len(noisy_convs) >= 2
    for c_dur, n_dur in zip(clean_convs[-2:], noisy_convs[-2:]):
        assert n_dur == pytest.approx(c_dur, rel=0.3)
    clean_fc = max(s.duration_ticks for s in clean)
    noisy_fc = max(s.duration_ticks for s in noisy)
    assert noisy_fc == pytest.approx(clean_fc, rel=0.15)
