"""How the value objects take and keep their caller's arrays.

DiscreteMeasure, PiecewiseLinearFn, MonotoneMap, Intervals, Coupling and
TailTrim take every float array through measures._as_1d (a new 1-D array of
finite floats) and store it read-only through measures._freeze, which is also
their __setstate__, so a pickled or copied object stays frozen; a
MartingaleDecomposition freezes the index arrays inside its components too.
The table at the end checks the type and the message of the constructors'
other errors.
"""

import copy
import pickle

import numpy as np
import pytest

from wmrline import (
    CostSpec,
    Coupling,
    CouplingError,
    DiscreteMeasure,
    DomainError,
    Interval,
    Intervals,
    MartingaleCoupling,
    MartingaleDecomposition,
    MonotoneMap,
    PerturbationLadder,
    PiecewiseLinearFn,
    TailTrim,
    build_martingale_coupling,
    decompose_martingale,
    find_two_point_improvement,
    finite_support_approx,
    parse_coupling_csv,
    pushforward,
    wasserstein,
)
from wmrline.wmr import kkt_residual

from conftest import dirac, dm
from oracle import project_admissible

NAN, INF = float("nan"), float("inf")

# each class with valid arguments, the names of its float arrays among them,
# and what its fields hold when every one of those arrays is a scalar
CLASSES = {
    "DiscreteMeasure": (
        DiscreteMeasure,
        {"atoms": [0.0, 1.0, 2.0], "weights": [0.25, 0.5, 0.25]},
        ("atoms", "weights"),
        {"atoms": [3.0], "weights": [1.0]},
    ),
    "PiecewiseLinearFn": (
        PiecewiseLinearFn,
        {"breakpoints": [0.0, 1.0, 2.0], "values": [1.0, 0.5, 1.0]},
        ("breakpoints", "values"),
        {"breakpoints": [3.0], "values": [1.0]},
    ),
    "MonotoneMap": (
        MonotoneMap,
        {"knots_x": [0.0, 1.0, 2.0], "knots_t": [0.0, 0.5, 1.0]},
        ("knots_x", "knots_t"),
        {"knots_x": [3.0], "knots_t": [1.0]},
    ),
    "Intervals": (
        Intervals,
        {"lo": [0.0, 2.0, 3.0], "hi": [1.0, 3.0, 5.0]},
        ("lo", "hi"),
        {"lo": [3.0], "hi": [4.0]},
    ),
    "Coupling": (
        Coupling,
        {"source": dm([0, 1]), "target": dm([0, 1]), "rows": [0, 1], "cols": [0, 1], "mass": [0.5, 0.5]},
        ("mass",),
        {"mass": [1.0]},
    ),
    "TailTrim": (
        TailTrim,
        {"atoms": [0.0, 1.0, 2.0], "weights": [0.25, 0.5, 0.25], "renormalized": dm([0, 1, 2], [0.25, 0.5, 0.25])},
        ("atoms", "weights"),
        {"atoms": [3.0], "weights": [1.0]},
    ),
}


def build(name, **changes):
    cls, kwargs, _, _ = CLASSES[name]
    return cls(**{**kwargs, **changes})


def array_fields(obj) -> dict:
    return {k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("name", CLASSES)
class TestIntake:
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_entries_raise(self, name, bad):
        for field in CLASSES[name][2]:
            values = list(CLASSES[name][1][field])
            values[1] = bad
            with pytest.raises(ValueError, match="^entries must be finite$"):
                build(name, **{field: values})

    def test_two_dimensional_input_raises(self, name):
        for field in CLASSES[name][2]:
            with pytest.raises(ValueError, match="^expected a 1-D array of reals$"):
                build(name, **{field: [CLASSES[name][1][field]]})

    def test_a_scalar_becomes_one_entry(self, name):
        scalars = {k: v[0] for k, v in CLASSES[name][3].items()}
        if name == "Coupling":
            scalars.update(source=dirac(0.0), target=dirac(0.0), rows=0, cols=0)
        obj = build(name, **scalars)
        for field, want in CLASSES[name][3].items():
            assert getattr(obj, field).tolist() == want

    def test_the_callers_arrays_stay_theirs(self, name):
        given = {k: np.array(v) for k, v in CLASSES[name][1].items() if isinstance(v, list)}
        before = {k: v.copy() for k, v in given.items()}
        obj = build(name, **given)
        for field, arr in given.items():
            assert arr.flags.writeable, field
            assert arr.tobytes() == before[field].tobytes(), field
            assert not np.shares_memory(arr, getattr(obj, field)), field

    @pytest.mark.parametrize(
        "how",
        [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_stay_frozen(self, name, how):
        obj = build(name)
        if name == "DiscreteMeasure":
            obj.cumulative()  # the cached levels are copied too
        twin = how(obj)
        assert type(twin) is type(obj)
        fields = array_fields(twin)
        assert fields.keys() == array_fields(obj).keys() >= set(CLASSES[name][2])
        for field, arr in fields.items():
            assert not arr.flags.writeable, field
            assert arr.tobytes() == getattr(obj, field).tobytes(), field
            with pytest.raises(ValueError):
                arr[0] = 9.0
        if name == "DiscreteMeasure":
            assert twin == obj
            assert twin.cumulative() is twin._levels
        if name == "Coupling":
            assert twin.source == obj.source and twin.target == obj.target
            assert not twin.source.weights.flags.writeable


@pytest.mark.parametrize(
    "how", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_martingale_coupling_copies_stay_frozen(how):
    mg = how(build_martingale_coupling(dirac(0.0), dm([-1, 1])))
    assert type(mg) is MartingaleCoupling
    assert not any(a.flags.writeable for a in array_fields(mg).values())


@pytest.mark.parametrize(
    "how",
    [lambda o: o, lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
    ids=["as-built", "pickle", "deepcopy"],
)
def test_decomposition_index_arrays_stay_frozen(how):
    # source atom 0 splits onto -1 and 1 (one component), atom 5 stays (fixed)
    mg = build_martingale_coupling(dm([0, 5]), dm([-1, 1, 5], [0.25, 0.25, 0.5]))
    dec = how(decompose_martingale(mg))
    arrays = [dec.fixed, *(a for _, a in dec.components)]
    assert [a.tolist() for a in arrays] == [[2], [0, 1]]
    assert not any(a.flags.writeable for a in arrays)


def test_decomposition_copies_the_callers_arrays():
    entries, fixed = np.array([0, 1]), np.array([2])
    dec = MartingaleDecomposition(((Interval(-1.0, 1.0), entries),), fixed)
    ours = [dec.fixed, dec.components[0][1]]
    assert entries.flags.writeable and fixed.flags.writeable
    assert [a.tolist() for a in ours] == [[2], [0, 1]]
    assert not any(a.flags.writeable for a in ours)
    assert not any(np.shares_memory(a, b) for a in ours for b in (entries, fixed))


class TestNonFiniteValues:
    """The faults the single intake closes: each used to be accepted."""

    def test_nan_mass_in_a_coupling(self):
        mu = dm([0, 1])
        with pytest.raises(ValueError, match="^entries must be finite$"):
            Coupling(mu, mu, [0, 1, 1], [0, 1, 0], [0.5, 0.5, NAN])

    def test_nan_mass_in_a_coupling_csv(self):
        mu = dm([0, 1])
        text = "source_atom,target_atom,mass\n0,0,0.5\n1,1,0.5\n1,0,nan\n"
        with pytest.raises(ValueError, match="^entries must be finite$"):
            parse_coupling_csv(text, mu, mu)

    @pytest.mark.parametrize("x", [[0.0, NAN, 2.0], [0.0, INF, 2.0]])
    def test_non_finite_knots(self, x):
        with pytest.raises(ValueError, match="^entries must be finite$"):
            MonotoneMap(x, [0.0, 1.0, 2.0])

    def test_kkt_residual(self):
        mu, nu = dm([-1, 1]), dm([-2, 2])
        with pytest.raises(ValueError, match="^entries must be finite$"):
            kkt_residual(mu, nu, [NAN, NAN], CostSpec.quadratic())

    def test_find_two_point_improvement(self):
        mu, nu = dm([-1, 1]), dm([-2, 2])
        mg = build_martingale_coupling(mu, nu)
        with pytest.raises(ValueError, match="^entries must be finite$"):
            find_two_point_improvement(mu, [NAN, 1.0], mg, CostSpec.quadratic())

    def test_project_admissible(self):
        with pytest.raises(ValueError, match="^entries must be finite$"):
            project_admissible([NAN, 0.0], dm([-1, 1]), dm([-2, 2]))

    def test_evaluation_points_keep_nan_in_nan_out(self):
        out = MonotoneMap([0.0, 1.0], [0.0, 1.0])([NAN, 0.5])
        assert np.isnan(out[0]) and out[1] == 0.5


def _coupling_with_an_empty_row():
    # source atom 1 weighs 1e-12, below the marginal gate's tolerance, and has no entry
    src = dm([0, 1, 2], [0.5, 1e-12, 0.5 - 1e-12])
    return Coupling(src, dm([0, 2]), [0, 2], [0, 1], [0.5, 0.5])


# (call, error type, message) of each constructor error
ERRORS = {
    "empty measure": (lambda: DiscreteMeasure([], []), ValueError, "a measure needs at least one atom"),
    "measure lengths": (
        lambda: DiscreteMeasure([0.0, 1.0], [1.0]),
        ValueError,
        "atoms and weights must have equal length",
    ),
    "vanishing weights": (lambda: DiscreteMeasure([0, 1], [0, 0]), ValueError, "all weights vanish"),
    "negative weight": (
        lambda: DiscreteMeasure([0.0, 1.0, 2.0], [0.6, -0.1, 0.5]),
        ValueError,
        "weights must be positive: negative at atom 1: off by 1.000e-01 (tol 1.000e-15)",
    ),
    "coupling lengths": (
        lambda: Coupling(dm([0, 1]), dm([0, 1]), [0, 1], [0], [0.5, 0.5]),
        CouplingError,
        "rows, cols and mass must have equal length",
    ),
    "conditional of an empty row": (
        lambda: _coupling_with_an_empty_row().conditional(1),
        CouplingError,
        "source atom 1 carries no mass",
    ),
    "pl lengths": (
        lambda: PiecewiseLinearFn([0.0, 1.0], [1.0]),
        ValueError,
        "breakpoints/values must be equal-length, nonempty",
    ),
    "pl breakpoints": (
        lambda: PiecewiseLinearFn([0.0, 0.0], [1.0, 1.0]),
        ValueError,
        "breakpoints must be strictly increasing",
    ),
    "pl convexity": (
        lambda: PiecewiseLinearFn([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
        ValueError,
        "slopes must be nondecreasing for a convex fn",
    ),
    "degenerate interval": (lambda: Interval(1.0, 1.0), ValueError, "degenerate interval (1.0, 1.0)"),
    "intervals lengths": (lambda: Intervals([0.0, 2.0], [1.0]), ValueError, "lo and hi must have equal length"),
    "degenerate intervals": (
        lambda: Intervals([0.0, 2.0, 4.0], [1.0, 2.0, 5.0]),
        ValueError,
        "interval 1 is degenerate: hi - lo = 0.000e+00",
    ),
    "reversed intervals": (
        lambda: Intervals([0.0, 3.0], [1.0, 2.5]),
        ValueError,
        "interval 1 is degenerate: hi - lo = -5.000e-01",
    ),
    "overlapping intervals": (
        lambda: Intervals([0.0, 1.75, 3.0], [2.0, 2.5, 4.0]),
        ValueError,
        "interval 1 starts 2.500e-01 below the end of interval 0",
    ),
    "library-made intervals": (
        lambda: Intervals._of(np.array([0.0, 2.0]), np.array([1.0, 1.5])),
        ValueError,
        "interval 1 is degenerate: hi - lo = -5.000e-01",
    ),
    "unsorted intervals": (
        lambda: Intervals([0.0, 5.0, 2.0], [1.0, 6.0, 3.0]),
        ValueError,
        "interval 2 starts 4.000e+00 below the end of interval 1",
    ),
    "pushforward length": (lambda: pushforward(dm([0, 1]), [0.0]), ValueError, "need one image per atom"),
    "knot lengths": (lambda: MonotoneMap([0.0, 1.0], [0.0]), ValueError, "knots need equal, positive length"),
    "ladder length": (
        lambda: PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 0),
        DomainError,
        "ladder needs at least one rung",
    ),
    "ladder rho": (
        lambda: PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 2, rho=0.5),
        DomainError,
        "rho must be finite and >= 1, got 0.5",
    ),
    "ladder nan rho": (
        lambda: PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 2, rho=NAN),
        DomainError,
        "rho must be finite and >= 1, got nan",
    ),
    "ladder rung": (
        lambda: PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 2).rung(3),
        DomainError,
        "rung 3 outside 1..2",
    ),
    "cell count": (
        lambda: finite_support_approx(dm([0, 1, 2]), 0),
        DomainError,
        "cell count must be >= 1, got 0",
    ),
    "wasserstein nan order": (
        lambda: wasserstein(dirac(0.0), dirac(2.0), NAN),
        DomainError,
        "wasserstein order must be finite and >= 1, got nan",
    ),
    "wasserstein inf order": (
        lambda: wasserstein(dirac(0.0), dirac(2.0), INF),
        DomainError,
        "wasserstein order must be finite and >= 1, got inf",
    ),
    "cost kind": (lambda: CostSpec("cubic"), DomainError, "unknown cost kind 'cubic'"),
    "power rho below 1": (
        lambda: CostSpec.power(0.5),
        DomainError,
        "power cost needs a finite rho >= 1, got 0.5",
    ),
    "power nan rho": (lambda: CostSpec.power(NAN), DomainError, "power cost needs a finite rho >= 1, got nan"),
    "power inf rho": (lambda: CostSpec.power(INF), DomainError, "power cost needs a finite rho >= 1, got inf"),
}


@pytest.mark.parametrize("case", ERRORS)
def test_error_type_and_message(case):
    call, error, message = ERRORS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
