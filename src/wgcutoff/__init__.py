"""Cut-off wavenumbers of waveguides filled with a homogeneous anisotropic
lossless medium whose transverse tensors commute with the quarter turn.

When the medium admits independent TE and TM mode families (positive
definite block tensors plus the decoupling constraint ``b*eps + a*mu = 0``),
each family can be computed two ways: from the longitudinal scalar field
with P1 elements, or from the transverse vector field with lowest-order edge
elements and a divergence multiplier.  The nonzero spectra of the two routes
coincide, which this package exploits for cross-validation; analytic TM
oracles (separable rectangle, Bessel disc/annulus) give a third, independent
route.
"""

from .medium import (
    MediumSpec,
    TransverseTensor,
    ValidationReport,
    bulk_wavenumber,
    commutes_with_rotation,
    product_scalar,
    validate,
)
from .mesh import (
    Mesh,
    MeshError,
    build_topology,
    export_mesh,
    generate_annulus,
    generate_rectangle,
    generate_rectilinear_polygon,
    import_mesh,
    refine_uniform,
)
from .femcore import (
    HermitianPencil,
    assemble_scalar_te,
    assemble_scalar_tm,
    assemble_vector_te,
    assemble_vector_tm,
)
from .eigensolve import SolveOptions, Spectrum, solve
from .modes import (
    FieldFrame,
    Formulation,
    ModeSolution,
    constraint_residuals,
    multiplier_diagnostics,
    reconstruct_from_ez,
    reconstruct_from_hz,
    reconstruct_longitudinal,
    solve_te_scalar,
    solve_te_vector,
    solve_tm_scalar,
    solve_tm_vector,
    transverse_companion,
    transverse_field,
    verify_tem,
)
from .crossval import (
    ComparisonReport,
    ConvergenceReport,
    compare_spectra,
    convergence_trend,
    oracle_tm_annulus,
    oracle_tm_disc,
    oracle_tm_rectangle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
