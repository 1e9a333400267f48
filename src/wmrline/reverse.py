"""The reverse relaxation: the smallest measure above mu that maps onto nu.

Instead of relaxing the target downward in convex order, the reverse problem
relaxes it upward: find the convex-order-smallest nu* >= mu that an
increasing 1-Lipschitz map pushes onto nu. Its optimizer is built directly
from the weak monotone rearrangement T of (mu, nu): on the contractive part
nu* carries mu's atoms, while the mass of nu attributed to each irreducible
interval is shifted by that interval's constant displacement. The module also
houses the convex-order map algebra (maxima, minima, residual comparisons)
this construction rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .measures import (
    ORDER_TOL,
    DiscreteMeasure,
    Interval,
    convex_order_leq,
    irreducible_components,
    lower_convex_envelope,
    mean,
    measure_from_potential,
    measures_close,
    nearest_atom,
    pl_max,
    potential,
    potential_at,
    pushforward,
    quantiles_at,
    support_scale,
)
from .wmr import CostSpec, MonotoneMap, weak_monotone_rearrangement


@dataclass(frozen=True)
class ReverseSolution:
    nu_star: DiscreteMeasure
    tilde_map: MonotoneMap
    irreducibles_mu_nustar: list[Interval]
    value: float
    cost: CostSpec

    def to_document(self) -> dict:
        return {
            "schema": 1,
            "kind": "reverse_solution",
            "cost": self.cost.describe(),
            "nu_star": {
                "atoms": [float(a) for a in self.nu_star.atoms],
                "weights": [float(w) for w in self.nu_star.weights],
            },
            "map_knots": [
                [float(a), float(b)]
                for a, b in zip(self.tilde_map.knots_x, self.tilde_map.knots_t)
            ],
            "irreducible_intervals": [[iv.lo, iv.hi] for iv in self.irreducibles_mu_nustar],
            "value": float(self.value),
        }


def _atom_weight(m: DiscreteMeasure, pos: float, tol: float) -> float:
    """Total mass within tol of pos (solver noise can split one atom in two)."""
    sel = np.abs(m.atoms - pos) <= tol
    return float(m.weights[sel].sum())


def _snap_to_atoms(pos, atoms: np.ndarray, tol: float) -> np.ndarray:
    """Positions within tol of their nearest atom moved onto it."""
    near = atoms[nearest_atom(atoms, pos)]
    return np.where(np.abs(near - pos) <= tol, near, pos)


def reverse_optimizer(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec | None = None
) -> ReverseSolution:
    """Construct (nu*, T~) explicitly from the weak monotone rearrangement.

    On each irreducible interval I of (T(mu), nu) the displacement
    c_I = x - T(x) is constant; nu* carries the nu-mass attributed to I
    shifted by +c_I, and mu's atoms unchanged wherever T(x) stays in the
    fixed set F. Boundary atoms of nu shared with F keep their fixed part
    eta({b}) in place, and the remaining inflow is attributed to adjacent
    intervals by mass balance (each interval's block must carry exactly the
    mass eta(I) that flows in the martingale stage). All postconditions are
    verified; any failure raises ConsistencyError with both potentials.
    """
    cost = cost or CostSpec.quadratic()
    sol = weak_monotone_rearrangement(mu, nu)
    t = sol.map(mu.atoms)
    eta = sol.pushforward
    comps = sol.irreducibles
    s = support_scale(mu, nu)
    # interval membership must absorb solver noise: atoms whose image is
    # within this margin of an endpoint stay on the fixed set, where their
    # image is snapped to the matching atom of nu
    margin = 1e-7 * s
    atom_tol = 1e-9 * s

    knots: list[tuple[float, float, float]] = []  # (position, image, weight)
    inside_any = np.zeros(mu.n, dtype=bool)
    carry = 0.0  # inflow left for the next interval at a shared endpoint
    prev_hi: float | None = None
    for iv in comps:
        in_idx = [i for i in range(mu.n) if iv.contains(float(t[i]), margin)]
        if not in_idx:
            raise ConsistencyError(
                f"no source atom maps strictly inside ({iv.lo}, {iv.hi}); "
                f"potentials: {potential_at(eta, nu.atoms)!r} vs {potential_at(nu, nu.atoms)!r}"
            )
        inside_any[in_idx] = True
        disp = mu.atoms[in_idx] - t[in_idx]
        if float(disp.max() - disp.min()) > 1e-7 * s:
            raise ConsistencyError(
                f"displacement not constant over the preimage of ({iv.lo}, {iv.hi})"
            )
        w_in = mu.weights[in_idx]
        c_iv = float(np.dot(w_in, disp) / w_in.sum())

        shared_lo = prev_hi is not None and abs(iv.lo - prev_hi) <= atom_tol
        inflow_lo = carry if shared_lo else (
            _atom_weight(nu, iv.lo, atom_tol) - _atom_weight(eta, iv.lo, margin)
        )
        interior = [
            j for j in range(nu.n) if iv.contains(float(nu.atoms[j]), atom_tol)
        ]
        need = float(w_in.sum())
        inflow_hi = need - float(nu.weights[interior].sum()) - inflow_lo
        avail_hi = _atom_weight(nu, iv.hi, atom_tol) - _atom_weight(eta, iv.hi, margin)
        if inflow_lo < -atom_tol or inflow_hi < -atom_tol or inflow_hi > avail_hi + atom_tol:
            raise ConsistencyError(
                f"mass balance failed on ({iv.lo}, {iv.hi}): "
                f"inflows {inflow_lo:.3e}/{inflow_hi:.3e}, available {avail_hi:.3e}"
            )
        lo_img, hi_img = _snap_to_atoms(np.array([iv.lo, iv.hi]), nu.atoms, margin).tolist()
        if inflow_lo > atom_tol:
            knots.append((lo_img + c_iv, lo_img, inflow_lo))
        for j in interior:
            knots.append((float(nu.atoms[j]) + c_iv, float(nu.atoms[j]), float(nu.weights[j])))
        if inflow_hi > atom_tol:
            knots.append((hi_img + c_iv, hi_img, inflow_hi))
        carry = avail_hi - inflow_hi
        prev_hi = iv.hi

    # on the fixed set the image is an atom of nu; snap away solver noise
    fixed = ~inside_any
    images = _snap_to_atoms(t[fixed], nu.atoms, margin)
    knots.extend(zip(mu.atoms[fixed].tolist(), images.tolist(), mu.weights[fixed].tolist()))

    knots.sort()
    pos: list[float] = []
    img: list[float] = []
    wts: list[float] = []
    for x_pos, image, w in knots:
        if pos and x_pos - pos[-1] <= atom_tol:
            if abs(image - img[-1]) > 1e-7 * s:
                raise ConsistencyError(
                    f"conflicting images {img[-1]} vs {image} at position {x_pos}"
                )
            wts[-1] += w
        else:
            pos.append(x_pos)
            img.append(image)
            wts.append(w)
    nu_star = DiscreteMeasure(np.array(pos), np.array(wts))
    tilde = MonotoneMap(np.array(pos), np.array(img))

    _verify_reverse(mu, nu, nu_star, tilde, np.array(img), np.array(wts), t, cost, s)
    val = float(np.dot(nu_star.weights, cost.value(nu_star.atoms - np.array(img))))
    return ReverseSolution(
        nu_star=nu_star,
        tilde_map=tilde,
        irreducibles_mu_nustar=irreducible_components(mu, nu_star),
        value=val,
        cost=cost,
    )


def _verify_reverse(mu, nu, nu_star, tilde, images, wts, t, cost, s):
    if not tilde.is_monotone(1e-9 * s) or not tilde.is_one_lipschitz(1e-9 * s):
        raise ConsistencyError("reverse map is not increasing and 1-Lipschitz")
    if not convex_order_leq(mu, nu_star):
        raise ConsistencyError("mu is not below nu* in convex order")
    if not measures_close(DiscreteMeasure(images, wts), nu, 1e-9):
        raise ConsistencyError("reverse map does not push nu* onto nu")
    direct = float(np.dot(mu.weights, cost.value(mu.atoms - t)))
    through = float(np.dot(wts, cost.value(nu_star.atoms - images)))
    if abs(direct - through) > 1e-9 * max(1.0, s) * max(1.0, abs(direct)):
        raise ConsistencyError(
            f"value through nu* ({through!r}) differs from the direct value ({direct!r})"
        )
    gap = np.abs(tilde(mu.atoms) - t)
    if gap.max() > 1e-8 * s:
        raise ConsistencyError(
            f"reverse map deviates from the rearrangement on supp(mu) by {gap.max():.3e}"
        )
    for iv in irreducible_components(mu, nu_star):
        idx = [k for k in range(nu_star.n) if iv.contains(float(nu_star.atoms[k]), 1e-9 * s)]
        for a, b in zip(idx, idx[1:]):
            if b != a + 1:
                continue
            dz = nu_star.atoms[b] - nu_star.atoms[a]
            dt = images[b] - images[a]
            if abs(dz - dt) > 1e-7 * s:
                raise ConsistencyError(
                    f"reverse map has slope {dt / dz:.6f} != 1 inside ({iv.lo}, {iv.hi})"
                )


# ---------------------------------------------------------------------------
# Convex-order map algebra
# ---------------------------------------------------------------------------


def quantile_assignment(source: DiscreteMeasure, target: DiscreteMeasure) -> np.ndarray:
    """target atom assigned to each source atom by cumulative-level blocks.

    Any increasing map pushing source onto target must take these values at
    the source atoms, so this is the canonical candidate.
    """
    cum = np.concatenate(([0.0], source.cumulative()))
    mids = 0.5 * (cum[:-1] + cum[1:])
    return quantiles_at(target, mids)


def convex_order_max_map(
    T: MonotoneMap, S: MonotoneMap, mu: DiscreteMeasure, tol: float = 1e-9
) -> MonotoneMap:
    """Increasing map R with R(mu) = T(mu) v S(mu) (convex-order maximum).

    Requires equal pushforward means. The maximum measure is recovered from
    the pointwise maximum of the two potential functions, and R is its
    quantile-level assignment; if T and S are L-Lipschitz, so is R.
    """
    Tmu = T.push(mu)
    Smu = S.push(mu)
    s = support_scale(Tmu, Smu)
    if abs(mean(Tmu) - mean(Smu)) > max(tol, ORDER_TOL) * s:
        raise PreconditionError("map maximum needs equal pushforward means")
    xi = measure_from_potential(pl_max(potential(Tmu), potential(Smu)))
    values = quantile_assignment(mu, xi)
    if not measures_close(pushforward(mu, values), xi, 1e-9):
        raise ConsistencyError("no increasing map realizes the convex-order maximum")
    return MonotoneMap(mu.atoms, values)


def convex_order_min_with_maps(
    eta1: DiscreteMeasure,
    T1: MonotoneMap,
    eta2: DiscreteMeasure,
    T2: MonotoneMap,
) -> tuple[DiscreteMeasure, MonotoneMap]:
    """Convex-order minimum of eta1, eta2 together with a map onto their
    common pushforward.

    The minimum's potential is the lower convex envelope of the two input
    potentials; the returned map is its quantile-level assignment onto nu,
    verified to push exactly. L-Lipschitz inputs give an L-Lipschitz output.
    """
    nu1 = T1.push(eta1)
    nu2 = T2.push(eta2)
    if not measures_close(nu1, nu2, 1e-9):
        raise PreconditionError("both maps must push onto the same measure")
    env = lower_convex_envelope(potential(eta1), potential(eta2))
    eta = measure_from_potential(env)
    values = quantile_assignment(eta, nu1)
    if not measures_close(pushforward(eta, values), nu1, 1e-9):
        raise ConsistencyError("no increasing map pushes the minimum onto nu")
    return eta, MonotoneMap(eta.atoms, values)


def residual_order_check(
    eta1: DiscreteMeasure,
    eta2: DiscreteMeasure,
    T1: MonotoneMap,
    T2: MonotoneMap,
    tol: float = 1e-9,
) -> bool:
    """(id - T1)(eta1) <=_c (id - T2)(eta2) for convex-ordered inputs.

    Preconditions: eta1 <=_c eta2, T2(eta2) <=_c T1(eta1), both maps
    increasing and 1-Lipschitz on their atoms. Under these the result is a
    theorem, so a False return indicates a bug in the caller or here.
    """
    s = support_scale(eta1, eta2)
    for m, f in ((eta1, T1), (eta2, T2)):
        vals = f(m.atoms)
        if np.any(np.diff(vals) < -tol * s):
            raise PreconditionError("maps must be increasing on the atoms")
        if np.any(np.diff(vals) > np.diff(m.atoms) + tol * s):
            raise PreconditionError("maps must be 1-Lipschitz on the atoms")
    if not convex_order_leq(eta1, eta2):
        raise PreconditionError("need eta1 <=_c eta2")
    if not convex_order_leq(T2.push(eta2), T1.push(eta1)):
        raise PreconditionError("need T2(eta2) <=_c T1(eta1)")
    res1 = pushforward(eta1, eta1.atoms - T1(eta1.atoms))
    res2 = pushforward(eta2, eta2.atoms - T2(eta2.atoms))
    return convex_order_leq(res1, res2)
