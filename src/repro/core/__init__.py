"""The paper's primary contribution: FreeBS and FreeRS.

Both estimators maintain a single shared array (bits for FreeBS, HLL
registers for FreeRS) plus one running counter per observed user, and update
both in O(1) per arriving (user, item) pair.  They report every user's
cardinality *at any time* during the stream, which is the "over time"
property the paper's title refers to.
"""

from repro.core.base import CardinalityEstimator, EstimatorState
from repro.core.freebs import FreeBS
from repro.core.freers import FreeRS

__all__ = [
    "CardinalityEstimator",
    "EstimatorState",
    "FreeBS",
    "FreeRS",
]
