"""Finite-element gradient-flow simulator for nematic liquid crystal droplets.

The model couples three energies on a phase-field description of a
droplet: elastic energy of the director/orientation pair, interfacial
(double-well plus gradient) energy of the phase field, and weak-anchoring
terms tying the director to the interface normal.  The time discretization
is a convex-splitting gradient flow that is provably energy decreasing for
any step size on weakly acute meshes; the ``verify`` module certifies the
implementation against independent oracles.
"""

from .assembly import (
    Operators,
    assemble_mass,
    assemble_stiffness,
    build_operators,
    element_gradients,
)
from .energy import (
    DoubleWell,
    EnergyReport,
    ModelWeights,
    cform,
    default_double_well,
    eform,
    total_energy,
)
from .fields import DirectorField, NodalScalarField
from .mesh import (
    AcutenessReport,
    TriMesh,
    audit_weak_acuteness,
    build_structured_mesh,
    count_components,
    mesh_size,
)
from .solver import (
    PhaseState,
    SchemeConfig,
    StepReport,
    gradient_flow_step,
    make_state,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "AcutenessReport", "DirectorField", "DoubleWell",
    "EnergyReport", "ModelWeights", "NodalScalarField", "Operators",
    "PhaseState", "SchemeConfig", "StepReport", "TriMesh", "assemble_mass",
    "assemble_stiffness", "audit_weak_acuteness", "build_operators",
    "build_structured_mesh", "cform", "count_components",
    "default_double_well", "eform", "element_gradients", "gradient_flow_step",
    "make_state", "mesh_size", "run", "total_energy",
]
