"""The attacking scheme file (paper Section III-D.2).

The scheme is a bit vector read out of the signal RAM at ``f_sRAM``; each
bit is one clock cycle of striker control: 1 enables the power striker,
0 idles it.  Three parameters generate it:

* **attack delay** — a run of 0s before the first strike (cycles between
  the detector trigger and the target layer),
* **attack period** — cycles from one strike's start to the next,
* **number of attacks** — how many strike pulses the vector contains,

plus the pulse width (the paper uses 10 ns = one victim cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..errors import SchemeError

__all__ = ["AttackScheme"]


@dataclass(frozen=True)
class AttackScheme:
    """A compiled-form description of one strike sequence."""

    attack_delay: int
    attack_period: int
    number_of_attacks: int
    strike_cycles: int = 1

    def __post_init__(self) -> None:
        if self.attack_delay < 0:
            raise SchemeError("attack_delay must be >= 0")
        if self.number_of_attacks < 0:
            raise SchemeError("number_of_attacks must be >= 0")
        if self.strike_cycles < 1:
            raise SchemeError("strike_cycles must be >= 1")
        if self.number_of_attacks > 1 and self.attack_period < self.strike_cycles:
            raise SchemeError(
                "attack_period must cover the strike itself "
                f"({self.attack_period} < {self.strike_cycles})"
            )

    # -- derived ----------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Length of the compiled bit vector."""
        if self.number_of_attacks == 0:
            return self.attack_delay
        return (
            self.attack_delay
            + (self.number_of_attacks - 1) * self.attack_period
            + self.strike_cycles
        )

    def strike_start_cycles(self) -> np.ndarray:
        """Cycle index (within the scheme) where each strike begins."""
        return self.attack_delay + self.attack_period * np.arange(
            self.number_of_attacks, dtype=np.int64
        )

    def duration_s(self, f_sram_hz: float) -> float:
        """Wall-clock span of the scheme at the signal RAM read clock."""
        if f_sram_hz <= 0:
            raise SchemeError("f_sRAM must be positive")
        return self.total_cycles / f_sram_hz

    # -- compile / parse ----------------------------------------------------------

    def compile(self) -> np.ndarray:
        """The bit vector stored in the signal RAM (uint8 0/1 per cycle)."""
        bits = np.zeros(self.total_cycles, dtype=np.uint8)
        starts = self.strike_start_cycles()
        bits[starts[:, None] + np.arange(self.strike_cycles)] = 1
        return bits

    @classmethod
    def parse(cls, bits: np.ndarray) -> "AttackScheme":
        """Recover scheme parameters from a bit vector.

        Requires a *regular* vector (uniform pulse width and period), which
        is what :meth:`compile` produces; irregular vectors raise
        :class:`~repro.errors.SchemeError`.
        """
        arr = np.asarray(bits).astype(np.uint8)
        if arr.ndim != 1:
            raise SchemeError("scheme bits must be 1-D")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise SchemeError("scheme bits must be 0/1")
        ones = np.flatnonzero(arr)
        if ones.size == 0:
            return cls(attack_delay=int(arr.size), attack_period=1,
                       number_of_attacks=0)
        # Decompose into pulses.
        breaks = np.flatnonzero(np.diff(ones) > 1)
        starts = np.concatenate([[ones[0]], ones[breaks + 1]])
        ends = np.concatenate([ones[breaks], [ones[-1]]]) + 1
        widths = ends - starts
        if not np.all(widths == widths[0]):
            raise SchemeError("irregular pulse widths; not a compiled scheme")
        if starts.size > 1:
            periods = np.diff(starts)
            if not np.all(periods == periods[0]):
                raise SchemeError("irregular pulse spacing; not a compiled scheme")
            period = int(periods[0])
        else:
            period = int(widths[0])
        return cls(
            attack_delay=int(starts[0]),
            attack_period=period,
            number_of_attacks=int(starts.size),
            strike_cycles=int(widths[0]),
        )

    # -- construction helpers ----------------------------------------------------------

    @classmethod
    def spread_over(cls, delay: int, window_cycles: int, n_strikes: int,
                    strike_cycles: int = 1) -> "AttackScheme":
        """Spread ``n_strikes`` evenly across a ``window_cycles`` span
        starting ``delay`` cycles after the trigger."""
        if window_cycles < 1:
            raise SchemeError("window must be at least one cycle")
        if n_strikes < 1:
            raise SchemeError("need at least one strike")
        period = max(strike_cycles, window_cycles // n_strikes)
        max_strikes = (window_cycles - strike_cycles) // period + 1
        if n_strikes > max_strikes:
            raise SchemeError(
                f"{n_strikes} strikes do not fit in {window_cycles} cycles "
                f"(max {max_strikes} at width {strike_cycles})"
            )
        return cls(
            attack_delay=delay,
            attack_period=period,
            number_of_attacks=n_strikes,
            strike_cycles=strike_cycles,
        )
