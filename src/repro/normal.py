"""Standard-normal constants shared by the samplers.

A leaf module (it imports only :mod:`math`), so a process that merely
builds scenario profiles or WAN links loads no simulator code for them.
"""

from __future__ import annotations

import math

# Standard-normal quantiles used to parameterise log-normal service times
# from published medians and tail percentiles.
Z_P90 = 1.2815515655446004
Z_P99 = 2.3263478740408408
Z_P999 = 3.090232306167813

# Kinderman–Monahan ratio-of-uniforms constant, the exact expression
# CPython's ``random.normalvariate`` uses. Hot sampling sites inline the
# stdlib rejection loop (two Python frames per draw otherwise); the bit
# pattern must match ``random.NV_MAGICCONST`` so inlined draws consume the
# stream identically — asserted in ``tests/sim/test_rng.py``.
NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)
