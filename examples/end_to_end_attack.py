#!/usr/bin/env python3
"""The full DeepStrike case study (paper Fig 5b workflow).

Profiles the victim through the TDC side channel, plans per-layer strike
trains from the *profiled* signatures (black-box mode — no schedule
oracle), executes them against the test set, and prints the Fig 5(b)
accuracy-versus-strikes series including the blind baseline.

Run:  python examples/end_to_end_attack.py
"""

import numpy as np

from repro import get_pretrained
from repro.accel import AcceleratorEngine
from repro.analysis import fixed_table
from repro.core import BlindAttack, DeepStrike
from repro.core.evaluation import LayerSweepResult, sweep_to_rows
from repro.sensors import GateDelayModel, TDCSensor
from repro.sensors.calibration import theta_for_target


def main() -> None:
    victim = get_pretrained()
    print(victim.summary(), "\n")

    engine = AcceleratorEngine(victim.quantized,
                               rng=np.random.default_rng(20))
    attack = DeepStrike(engine, rng=np.random.default_rng(21))
    config = engine.config

    # Step 1: profile the victim through the side channel.
    delay_model = GateDelayModel(config.delay)
    theta = theta_for_target(config.tdc, delay_model, voltage=0.9867)
    sensor = TDCSensor(config.tdc, delay_model, theta,
                       rng=np.random.default_rng(22))
    library = attack.profile_victim(
        sensor, nominal_readout=config.tdc.calibration_target, n_traces=3)
    rows = [[f"#{s.order}", s.kind_guess, s.duration_ticks,
             f"{s.mean_droop:.2f}"] for s in library]
    print("Profiled layer library (black-box view):")
    print(fixed_table(["order", "kind", "ticks", "droop"], rows), "\n")

    # Step 2+3: plan from the profile and execute, per target.
    images = victim.dataset.test_images[:200]
    labels = victim.dataset.test_labels[:200]
    sweeps = []
    targets = [(0, [1000, 2000, 3600]),   # profiled conv1
               (2, [1500, 3000, 4500]),   # profiled conv2
               (3, [1500, 3000, 4500])]   # profiled fc1
    for order, counts in targets:
        label = f"{library[order].kind_guess}#{order}"
        sweep = LayerSweepResult(label)
        for count in counts:
            plan = attack.plan_from_profile(library, order, count)
            outcome = attack.execute(images, labels, plan)
            sweep.outcomes.append(outcome)
            print(f"  {label}: {count} strikes -> accuracy "
                  f"{outcome.attacked_accuracy:.3f} "
                  f"({plan.wasted_strikes} wasted)")
        sweeps.append(sweep)

    blind = BlindAttack(engine, rng=np.random.default_rng(23))
    blind_sweep = LayerSweepResult("blind")
    for count in (1500, 4500):
        outcome = blind.execute(images, labels, blind.plan_random(count))
        blind_sweep.outcomes.append(outcome)
        print(f"  blind: {count} strikes -> accuracy "
              f"{outcome.attacked_accuracy:.3f}")
    sweeps.append(blind_sweep)

    clean = sweeps[0].outcomes[0].clean_accuracy
    print(f"\nAccuracy vs strikes (clean {clean:.4f}; "
          "paper: conv2 drops ~14% at 4500 strikes):")
    print(sweep_to_rows(sweeps))
    print("\nMax accuracy drop per target:")
    print(fixed_table(["target", "max drop"],
                      [[s.target_layer, f"{s.max_drop:.4f}"]
                       for s in sweeps]))


if __name__ == "__main__":
    main()
