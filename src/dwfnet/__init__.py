"""Discrete Wigner functions of multiqubit states over finite-field phase
spaces: quantum-net enumeration and classification, Wigner/Stokes/density
transforms, and net-general subsystem reduction maps.
"""

from .errors import (
    DimensionMismatchError,
    DwfError,
    FieldDomainError,
    NetConstructionError,
    NetMismatchError,
    NonCommutingError,
    PurityError,
    UnsupportedDimensionError,
    UnsupportedNetError,
    ValidationError,
)
from .ffield import GF2m
from .phasespace import PhaseSpace
from .nets import (
    NetContext,
    ProductReport,
    QuantumNet,
    build_net,
    classify_nets,
    detect_product_structure,
    digits_of,
    enumerate_nets,
    id_of,
    net_context,
    translate_net_id,
)
from .wigner import (
    DensityState,
    WignerFunction,
    dwf_from_rho,
    line_probability,
    purity_from_dwf,
    random_density,
    random_pure,
    rho_from_dwf,
)
from .stokes import (
    HadamardMatrix,
    StokesVector,
    conjugate_dwf,
    conjugation_matrix,
    hadamard_matrix,
    pauli_words,
    spinflip_dwf,
    spinflip_matrix,
    stokes_from_dwf,
    stokes_from_rho,
)
from .reduction import (
    KeepSet,
    ReductionMap,
    concurrence_from_dwf,
    convert_net,
    shortcut_reduce,
    reduce_dwf,
    reduction_map,
)

__version__ = "0.1.0"

# The public API is every non-private, non-module name the imports above bind.
__all__ = [name for name, value in vars().items()
           if not name.startswith("_") and not isinstance(value, type(errors))]
