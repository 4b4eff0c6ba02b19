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

``import wgcutoff`` loads the medium and mesh layers, which need only NumPy.
Every other public name (assembly, eigensolver, modes, cross-validation)
and its submodule load on first use, and with them SciPy, so mesh-only work
never imports SciPy.
"""

from importlib import import_module as _import_module

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

#: Public name -> the submodule that defines it, loaded on first use.
_LAZY = {
    **dict.fromkeys(("femcore", "eigensolve", "modes", "crossval")),
    **dict.fromkeys(("HermitianPencil", "assemble_scalar_te", "assemble_scalar_tm",
                     "assemble_vector_te", "assemble_vector_tm"), "femcore"),
    **dict.fromkeys(("SolveOptions", "Spectrum", "solve"), "eigensolve"),
    **dict.fromkeys(("FieldFrame", "Formulation", "ModeSolution",
                     "constraint_residuals", "multiplier_diagnostics",
                     "reconstruct_from_ez", "reconstruct_from_hz",
                     "reconstruct_longitudinal", "solve_te_scalar",
                     "solve_te_vector", "solve_tm_scalar", "solve_tm_vector",
                     "transverse_companion", "transverse_field", "verify_tem"),
                    "modes"),
    **dict.fromkeys(("ComparisonReport", "ConvergenceReport", "compare_spectra",
                     "convergence_trend", "oracle_tm_annulus", "oracle_tm_disc",
                     "oracle_tm_rectangle"), "crossval"),
}

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = _LAZY[name]
    if owner is None:  # a submodule itself
        value = _import_module(f"{__name__}.{name}")
    else:
        value = getattr(_import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
