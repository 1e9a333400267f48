"""Weak monotone rearrangement on the real line.

Solvers, verifiers and experiment tooling for the barycentric weak optimal
transport problem between finitely supported measures: the convex-order
toolkit, the rearrangement itself, martingale coupling machinery, the
reverse relaxation, and stability ladders.

Importing the package loads the solve layer (``errors``, ``measures`` and
``wmr``). The couplings, the reverse, the stability ladders and the QP
oracle load on first use of one of their names, so a process that never
touches them does not compile them.
"""

from .errors import (
    CompositionError,
    ConsistencyError,
    CouplingError,
    DomainError,
    HypothesisError,
    OrderError,
    PreconditionError,
    SizeError,
    SolverError,
    StructureError,
    WmrError,
)
from .measures import (
    DiscreteMeasure,
    Interval,
    Intervals,
    PiecewiseLinearFn,
    convex_order_leq,
    irreducible_components,
    lower_convex_envelope,
    mean,
    measure_from_potential,
    measures_close,
    pl_max,
    potential,
    potential_at,
    pushforward,
    quantile,
    quantize,
    read_measure_csv,
    support_scale,
    wasserstein,
    write_measure_csv,
)
from .wmr import (
    CostSpec,
    MonotoneMap,
    WeakSolution,
    map_decomposition,
    solve_weak_transport,
    value,
    verify_admissible,
    verify_slope1_characterization,
    weak_monotone_rearrangement,
)

__version__ = "0.1.0"

# the submodules loaded on first access, each with the public names it defines
_DEFERRED = {
    "qp": "",
    "martingale": """Coupling MartingaleCoupling MartingaleDecomposition build_martingale_coupling
        competitor_curve compose_with_map coupling_to_csv decompose_martingale
        find_two_point_improvement optimality_certificate parse_coupling_csv supports_overlap""",
    "reverse": """ReverseSolution convex_order_max_map convex_order_min_with_maps
        quantile_assignment residual_order_check reverse_optimizer""",
    "stability": """PerturbationLadder StabilityReport StabilityRung TailTrim eta_transfer
        finite_support_approx run_stability_experiment truncate_mean_preserving""",
}
# public name -> the submodule that holds it; a submodule's name maps to itself
_LAZY = {name: mod for mod, names in _DEFERRED.items() for name in (mod, *names.split())}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name: str):
    """Import the submodule behind a lazy name (PEP 562) and keep the name in
    the package namespace, so later lookups do not come back here."""
    try:
        owner = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f"{__name__}.{owner}")
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
