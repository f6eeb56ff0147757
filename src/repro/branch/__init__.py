"""Branch prediction: a Pentium M-style predictor with replicable path
context, per the baseline machine of Figure 7 and the design-space study of
Figure 12.
"""

from repro.branch.pentium_m import BUBBLE, MISPREDICT, PentiumMPredictor

__all__ = ["BUBBLE", "MISPREDICT", "PentiumMPredictor"]
