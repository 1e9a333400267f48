"""Stress tier: every layer on the valid input the library is meant to handle.

Each cell draws 40 pairs (draw d from default_rng([d, 7])) with n, m in
100..3000, then shifts both measures by one offset, 0, 1e3 or 1e6:

- dirichlet: mu atoms U(-3, 3), nu atoms U(-2, 2), Dirichlet(1) weights;
- light: the same atoms; every weight 10^U(-7, -5) except one atom per
  measure, which gets +1, then the weights are normalised;
- clustered: mu as in dirichlet; nu in clusters of 60 atoms around U(-2, 2)
  centres, consecutive atoms 10^U(-10, -6) apart, Dirichlet(1) weights.

Every draw runs the solve, verify_admissible, the reverse both ways, the
coupling build, compose, the certificate and decompose_martingale. A stage
fails when it raises a library error or reports a failure; the stages that
need its output are then not run. The tests assert the exact number of
failures per stage, as measured: a mend changes a count, and a regression
fails. A fourth family drives the reverse at n <= 20 onto nu atoms just
above the merge tolerance.

The counts are exact for one numpy/BLAS build. A draw near a gate can flip
between builds; re-measure a count that moves by one or two before reading
it as a regression.
"""

from collections import Counter

import numpy as np
import pytest

from wmrline import (
    DiscreteMeasure,
    WmrError,
    build_martingale_coupling,
    compose_with_map,
    decompose_martingale,
    optimality_certificate,
    reverse_optimizer,
    solve_weak_transport,
    verify_admissible,
)

DRAWS = 40
CLUSTER = 60


def _weights(rng, size, family):
    if family != "light":
        return rng.dirichlet(np.ones(size))
    w = 10.0 ** rng.uniform(-7.0, -5.0, size)
    w[rng.integers(size)] += 1.0
    return w / w.sum()


def stress_pair(family, d, offset):
    """Draw d of family, both measures shifted by offset."""
    rng = np.random.default_rng([d, 7])
    n, m = (int(v) for v in rng.integers(100, 3001, 2))
    x, p = rng.uniform(-3.0, 3.0, n), _weights(rng, n, family)
    if family == "clustered":
        k = -(-m // CLUSTER)
        gaps = 10.0 ** rng.uniform(-10.0, -6.0, (k, CLUSTER))
        gaps[:, 0] = 0.0
        y = (rng.uniform(-2.0, 2.0, (k, 1)) + gaps.cumsum(axis=1)).ravel()[:m]
    else:
        y = rng.uniform(-2.0, 2.0, m)
    q = _weights(rng, m, family)
    return DiscreteMeasure(x + offset, p), DiscreteMeasure(y + offset, q)


def failed_stages(mu, nu):
    """The stages of the pipeline on (mu, nu) that fail, in order."""
    failed = []

    def run(stage, fn, ok=lambda out: True):
        try:
            out = fn()
        except WmrError:
            out = None
        if out is None or not ok(out):
            failed.append(stage)
            return None
        return out

    sol = run("solve", lambda: solve_weak_transport(mu, nu))
    if sol is None:
        return failed
    run("verify", lambda: verify_admissible(sol.map, mu, nu), lambda r: r.ok)
    run("reverse", lambda: reverse_optimizer(mu, nu))
    run("reverse back", lambda: reverse_optimizer(nu, mu))
    mg = run("build", lambda: build_martingale_coupling(sol.pushforward, nu))
    if mg is None:
        return failed
    pi = run("compose", lambda: compose_with_map(mu, sol.map, mg))
    if pi is not None:
        run("certificate", lambda: optimality_certificate(pi, mu, nu), lambda r: r.ok)
    run("decompose", lambda: decompose_martingale(mg))
    return failed


# failures per stage out of DRAWS draws, as measured; a stage not named has none
EXPECTED = {
    ("dirichlet", 0.0): {},
    ("dirichlet", 1e3): {},
    ("dirichlet", 1e6): {"build": 27},
    ("light", 0.0): {"build": 7},
    ("light", 1e3): {"build": 27},
    ("light", 1e6): {"build": 38},
    ("clustered", 0.0): {},
    ("clustered", 1e3): {},
    ("clustered", 1e6): {"build": 33},
}


@pytest.mark.parametrize(
    "family,offset", list(EXPECTED), ids=[f"{f}-{o:g}" for f, o in EXPECTED]
)
def test_failures_per_stage(family, offset):
    got = Counter()
    for d in range(DRAWS):
        got.update(failed_stages(*stress_pair(family, d, offset)))
    assert dict(got) == EXPECTED[family, offset]


def near_merge_pair(d):
    """mu: 1-20 atoms U(-3, 3); nu: 2-20 atoms within 1e-10 above one point
    U(-2, 2), plus 3 atoms U(-2, 2); Dirichlet(1) weights."""
    rng = np.random.default_rng([d, 7])
    n, k = int(rng.integers(1, 21)), int(rng.integers(2, 21))
    mu = DiscreteMeasure(rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n)))
    y = np.concatenate((rng.uniform(-2.0, 2.0) + rng.uniform(0.0, 1e-10, k), rng.uniform(-2.0, 2.0, 3)))
    return mu, DiscreteMeasure(y, rng.dirichlet(np.ones(y.size)))


def test_reverse_onto_nearly_merged_atoms():
    """reverse_optimizer merges nu* points within MERGE_TOL of its own span,
    which exceeds nu's, so two atoms of nu can land on one atom of nu*."""
    got = Counter()
    for d in range(2000):
        mu, nu = near_merge_pair(d)
        for stage, a, b in (("reverse", mu, nu), ("reverse back", nu, mu)):
            try:
                reverse_optimizer(a, b)
            except WmrError as err:
                got[stage, type(err).__name__] += 1
    assert dict(got) == {("reverse", "ConsistencyError"): 1329}
