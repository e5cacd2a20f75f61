"""Set-up probe: import haar_digits and make the first evaluation of each law.

Run as ``python3 bench/setup_probe.py '<json list of [class, kwargs]>'`` in a
fresh interpreter. Each law is built, evaluated on a 257-point grid over
[1, base] and asked for its first-digit masses, which is the work a CLI run
pays before it draws its first sample.
"""

import json
import sys

import numpy as np

import haar_digits

GRID_POINTS = 257

for cls_name, kwargs in json.loads(sys.argv[1]):
    law = getattr(haar_digits, cls_name)(**kwargs)
    grid = np.linspace(1.0, float(law.base), GRID_POINTS)
    cdf = np.asarray(law.cdf(grid), dtype=float)
    probs = np.asarray(law.first_digit_probs(), dtype=float)
    if not (np.all(np.diff(cdf) >= 0.0) and abs(probs.sum() - 1.0) < 1e-9):
        sys.exit(f"setup probe: {cls_name}{kwargs} gave an invalid law")
