"""Encoders for the TDC's raw carry-chain capture.

The raw capture is a thermometer code: the launched edge has traversed
``k`` carry stages when the sampling clock fires, so stages ``0..k-1``
read 1 and the rest read 0.  Two reductions are used by the attack:

* the **ones-count encoder** (128-bit -> 8-bit unsigned) whose output is
  the "sensor readout" plotted in Fig 1(b), and
* the **5-zone sampler** feeding the DNN start detector (Fig 3): the
  128 bits are partitioned into five zones and one representative bit is
  taken from each, purifying small fluctuations into a 5-bit word whose
  Hamming weight moves only on meaningful voltage excursions.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..errors import ConfigError

__all__ = [
    "ones_count",
    "thermometer_vector",
    "zone_sample_indices",
    "zone_bits",
    "hamming_weight",
    "ZONE_TAP_FRACTION",
]

#: Relative position of the tapped bit within each zone.  With 128
#: stages and 5 zones the taps sit at 14/39/65/90/116: the top tap two
#: counts below the calibrated idle readout (92), so a MaxPool layer's
#: shallow droop already reads Hamming weight 3.
ZONE_TAP_FRACTION = 0.55


def thermometer_vector(count: int, length: int) -> np.ndarray:
    """Thermometer code: ``count`` ones followed by zeros, as uint8."""
    if not 0 <= count <= length:
        raise ConfigError(f"count {count} outside [0, {length}]")
    vec = np.zeros(length, dtype=np.uint8)
    vec[:count] = 1
    return vec


def ones_count(bits: Union[Sequence[int], np.ndarray]) -> int:
    """The ones-count encoder: number of 1s in the capture vector.

    This is the 128-bit -> 8-bit reduction the paper's encoder performs;
    it is exact for any bit pattern, not just clean thermometer codes, so
    metastable captures still produce a usable (if noisy) readout.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ConfigError("capture vector must be 1-D")
    return int(np.count_nonzero(arr))


def hamming_weight(bits: Union[Sequence[int], np.ndarray]) -> int:
    """Alias of :func:`ones_count` in detector terminology."""
    return ones_count(bits)


def zone_sample_indices(length: int = 128, zones: int = 5,
                        fraction: float = ZONE_TAP_FRACTION) -> List[int]:
    """Indices of the one representative bit per zone.

    The chain is split into ``zones`` equal spans; within each span the bit
    at relative position ``fraction`` is tapped.  With the defaults and the
    calibrated operating point (readout ~92), the top zone's tap (90) sits
    two counts below the nominal edge, so the 5-bit word reads Hamming
    weight 4 at idle and drops to 3 the moment a layer's droop begins —
    the paper's "HW == 3 means MaxPool just started" condition.  Idle
    noise alone reads 90 or less in about 2 % of samples, singly; the
    start detector's debounce is what rejects it.
    """
    if zones < 1 or length < zones:
        raise ConfigError("need at least one bit per zone")
    if not 0.0 <= fraction < 1.0:
        raise ConfigError("fraction must be in [0, 1)")
    span = length / zones
    indices = [int(z * span + fraction * span) for z in range(zones)]
    if len(set(indices)) != zones:
        raise ConfigError("zone taps collide; increase length or reduce zones")
    return indices


def zone_bits(capture: np.ndarray, zones: int = 5,
              fraction: float = ZONE_TAP_FRACTION) -> np.ndarray:
    """Extract the 5-zone detector input word from a raw capture vector."""
    arr = np.asarray(capture)
    if arr.ndim != 1:
        raise ConfigError("capture vector must be 1-D")
    taps = zone_sample_indices(arr.shape[0], zones, fraction)
    return arr[taps].astype(np.uint8)


def zone_bits_from_readout(readout: Union[int, np.ndarray], length: int = 128,
                           zones: int = 5,
                           fraction: float = ZONE_TAP_FRACTION) -> np.ndarray:
    """Detector word(s) computed directly from ones-count readouts.

    For clean thermometer captures, bit ``i`` of the word is simply
    ``readout > tap_index``; vectorized over a whole readout trace this
    returns shape ``(n, zones)``.
    """
    taps = np.asarray(zone_sample_indices(length, zones, fraction))
    r = np.asarray(readout)
    word = (r[..., None] > taps).astype(np.uint8)
    return word
