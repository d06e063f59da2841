"""Recollement and Serre-functor workbench over prime fields.

Builds the six-functor diagram attached to an idempotent of an acyclic
path algebra, the Nakayama/Serre functors of the three bounded derived
categories, the four extra adjoints they induce, and machine-verifies the
recollement axioms for the original diagram and its two reflections.
"""

from .field import PrimeField
from .algebra import Quiver, path_algebra, opposite, corner, idempotent_quotient
from .complexes import BoundedComplex, ChainMap, DerivedContext, stalk_complex
from .recollement import build_recollement, default_menus, original_diagram, verify_axioms
from .serre import attach_serre, serre_axiom_check
from .reflect import assemble_reflected

__version__ = "0.1.0"

__all__ = [
    "PrimeField",
    "Quiver",
    "path_algebra",
    "opposite",
    "corner",
    "idempotent_quotient",
    "BoundedComplex",
    "ChainMap",
    "DerivedContext",
    "stalk_complex",
    "build_recollement",
    "default_menus",
    "original_diagram",
    "verify_axioms",
    "attach_serre",
    "serre_axiom_check",
    "assemble_reflected",
    "__version__",
]
