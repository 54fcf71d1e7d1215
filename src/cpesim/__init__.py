"""Hydrostatically reduced compressible flow on a periodic slab.

The package integrates the transformed column model (plan density xi,
horizontal velocity u, diagnostic vertical velocity w), maps trajectories
back to the physical stratified variables (rho, u, v), tracks the energy
and entropy functionals the model is built around, and mechanizes the
thin-layer scale analysis that produces the reduced equations.
"""

from .grid import DEFAULT_HEIGHT, GridSpec
from .states import ModelState, PhysicalState

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_HEIGHT",
    "GridSpec",
    "ModelState",
    "PhysicalState",
    "__version__",
]
