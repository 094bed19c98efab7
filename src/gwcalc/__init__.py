"""gwcalc: exact genus-0 Gromov-Witten invariants and quantum cohomology.

Curve counts N_d (rational plane curves through 3d-1 general points) and
N_(d,e) (bidegree-(d,e) curves in P1xP1 through 2d+2e-1 points), general
genus-0 invariants of P^r and P1xP1, classical/small/big quantum products,
truncated potentials and WDVV verification, all in exact arithmetic.

The package root imports nothing up front: each public name and each
submodule below is imported on first access (PEP 562) and then kept as a
plain module attribute, so ``gwcalc nd`` loads only what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("Rational", "as_integer", "binomial", "factorial",
              "is_integer"),
    "gw": ("collected_invariant", "dim_moduli", "dimension_admissible",
           "gw_invariant", "gw_p1", "gw_p1x1", "gw_pr", "reduce_invariant"),
    "partitions": ("MarkSet", "WeightedPartition",
                   "boundary_divisor_count_m0n",
                   "count_labeled_configurations", "enumerate_partitions",
                   "stratum_dimension"),
    "potentials": ("classical_potential", "gamma_p1x1", "gamma_p2_reduced",
                   "gw_potential_p1", "phi_ijk", "quantum_potential_p1x1",
                   "quantum_potential_p2_reduced", "wdvv_general_pr",
                   "wdvv_residual_p1x1", "wdvv_residual_p2"),
    "rings": ("BigQuantumElement", "RingElement", "big_qmul", "cup_p1x1",
              "cup_pr", "small_qmul", "small_qmul_p1x1", "small_qmul_pr",
              "star_power"),
    "series": ("TruncatedSeries", "parse_series"),
    "surfaces": ("bidegree_intersection", "genus_nodal_p2",
                 "genus_smooth_p1x1", "n_d", "n_d_raw", "n_de", "n_de_raw",
                 "required_points"),
    "targets": ("InvariantKey", "P1XP1", "P1xP1", "ProjectiveSpace",
                "TargetSpace", "exponents_from_classes", "parse_basis_class"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "BigQuantumElement", "InvariantKey", "MarkSet", "P1XP1", "P1xP1",
    "ProjectiveSpace", "Rational", "RingElement", "TargetSpace",
    "TruncatedSeries", "WeightedPartition", "as_integer",
    "bidegree_intersection", "big_qmul", "binomial",
    "boundary_divisor_count_m0n", "classical_potential",
    "collected_invariant", "count_labeled_configurations", "cup_p1x1",
    "cup_pr", "dim_moduli", "dimension_admissible", "enumerate_partitions",
    "exponents_from_classes", "factorial", "gamma_p1x1", "gamma_p2_reduced",
    "gw_invariant", "gw_p1", "gw_p1x1", "gw_potential_p1", "gw_pr",
    "genus_nodal_p2", "genus_smooth_p1x1", "is_integer", "n_d", "n_d_raw",
    "n_de", "n_de_raw", "parse_basis_class", "parse_series", "phi_ijk",
    "quantum_potential_p1x1", "quantum_potential_p2_reduced",
    "reduce_invariant", "required_points", "small_qmul", "small_qmul_p1x1",
    "small_qmul_pr", "star_power", "stratum_dimension", "wdvv_general_pr",
    "wdvv_residual_p1x1", "wdvv_residual_p2",
]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # What the eager root listed: the public names and submodules, loaded
    # or not, without the machinery of this file.
    names = set(globals()) | set(_EXPORTS) | set(_HOME)
    return sorted(names - {"import_module", "_EXPORTS", "_HOME",
                           "__getattr__", "__dir__"})
