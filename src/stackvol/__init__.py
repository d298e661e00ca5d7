"""Volumes of differentiable stacks presented by groupoids.

Exact big-integer rational volumes for finite groupoids, including
Morita-equivalence transfer through linking groupoids, plus numerical
volumes and orbit-space densities for a fixed catalog of analytic
Lie-groupoid models.

Importing the package loads no module: each public name is imported
from its module, as in ``from stackvol.finite import fiber_volume``.
Importing a module loads no numpy, ``su2`` included: numpy loads at the
first Monte Carlo or SU(2) computation.
"""

__version__ = "0.1.0"
