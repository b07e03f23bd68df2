"""Physical fields derived from a voltage solution.

Probability density, link currents, heat power, the power-balance audit,
nodal-line vortices and streamline tracing.
"""

from dataclasses import dataclass
from math import pi

import numpy as np

from .geometry import GridGeometry
from .network import element_admittances, lattice_incidence
from .solve import ComplexField

PHYSICAL = "physical"
OHMIC = "ohmic"

FLOW_CUTOFF = 1e-12


@dataclass
class CurrentField:
    """Complex currents on the links leaving each site toward +x and +y.

    Links that do not exist in the network (neither end interior) carry 0
    and are excluded by the masks.
    """

    geometry: GridGeometry
    ix: np.ndarray        # complex, (nx, ny); link (i,j)-(i+1,j)
    iy: np.ndarray        # complex, (nx, ny); link (i,j)-(i,j+1)
    mask_x: np.ndarray    # bool, link exists
    mask_y: np.ndarray


@dataclass
class HeatField:
    """Local resistive dissipation P(i, j) >= 0 and its total."""

    geometry: GridGeometry
    power: np.ndarray

    @property
    def total(self) -> float:
        return float(self.power.sum())


@dataclass(frozen=True)
class Vortex:
    """Phase singularity at a nodal-line crossing."""

    x: float
    y: float
    winding: int


def probability_density(field: ComplexField) -> np.ndarray:
    """rho = |V|^2 over interior sites, normalized to unit interior mean."""
    inter = field.geometry.interior
    rho = np.abs(field.values) ** 2
    mean = rho[inter].mean()
    if mean == 0.0:
        raise ValueError("all-zero field: density normalization undefined")
    out = np.zeros_like(rho)
    out[inter] = rho[inter] / mean
    return out


def _voltage_drops(field: ComplexField):
    """Incidence over every network site and the drop V_hi - V_lo per link."""
    geom = field.geometry
    inc = lattice_incidence(geom, geom.interior | geom.boundary)
    return inc, inc.matrix @ field.values[inc.index >= 0]


def link_currents(field: ComplexField,
                  variant: str = PHYSICAL) -> CurrentField:
    """Currents I = dV / z on every network link of the field's own circuit.

    `physical` divides by the true link impedance at the field's frequency
    (per-link perturbed when the field carries a tolerance realization);
    `ohmic` divides by the bare resistance R.  The two differ by one global
    complex factor for tau = 0, so normalized statistics agree.
    """
    if variant not in (PHYSICAL, OHMIC):
        raise ValueError(f"unknown current variant: {variant!r}")
    geom = field.geometry
    inc, dv = _voltage_drops(field)
    if variant == OHMIC:
        if field.spec.resistance <= 0.0:
            raise ValueError("ohmic currents undefined for R = 0")
        y = 1.0 / field.spec.resistance
    else:
        y, _ = element_admittances(geom, field.spec, field.omega,
                                   field.perturbation, inc)
    i_link = dv * y
    n_x = np.count_nonzero(inc.mask_x)
    ix = np.zeros(field.values.shape, dtype=complex)
    iy = np.zeros_like(ix)
    ix[inc.mask_x] = i_link[:n_x]
    iy[inc.mask_y] = i_link[n_x:]
    return CurrentField(geometry=geom, ix=ix, iy=iy,
                        mask_x=inc.mask_x, mask_y=inc.mask_y)


def heat_power(currents: CurrentField, resistance: float) -> HeatField:
    """P(i, j) = (R/2) (|I_x|^2 + |I_y|^2) per site."""
    if resistance < 0.0:
        raise ValueError("R must be >= 0")
    p = 0.5 * resistance * (np.abs(currents.ix) ** 2 + np.abs(currents.iy) ** 2)
    return HeatField(geometry=currents.geometry, power=p)


def power_balance(field: ComplexField) -> float:
    """Relative mismatch between injected active power and total dissipation.

    P_in = Re(V_s conj(I_s)) / 2 at the field's source; the dissipation is
    one sum of Re(1/y) |I|^2 / 2 over every network element of nonzero
    admittance y: each link, with I = y dV, and each shunt (interior cells
    and Neumann or mixed boundary sites), with I = y V.
    """
    geom = field.geometry
    (si, sj), amplitude = field.source
    p_in = 0.5 * float(np.real(field.values[si, sj] * np.conj(amplitude)))

    inc, dv = _voltage_drops(field)
    y_link, y_shunt = element_admittances(geom, field.spec, field.omega,
                                          field.perturbation, inc)
    shunted = y_shunt != 0.0   # grounded Dirichlet sites have no shunt
    y = np.concatenate((y_link, y_shunt[shunted]))
    drop = np.concatenate((dv, field.values[shunted]))
    p_diss = 0.5 * float(np.sum(np.real(1.0 / y) * np.abs(y * drop) ** 2))

    # lossless case: active power vanishes up to roundoff of the apparent
    # power 0.5 |V_s I_s|; report 0 rather than a 0/0 ratio
    p_apparent = 0.5 * abs(field.values[si, sj] * np.conj(amplitude))
    if abs(p_in) <= 1e-12 * p_apparent:
        if abs(p_diss) <= 1e-12 * p_apparent:
            return 0.0
        raise ValueError("zero injected power with nonzero dissipation")
    return abs(p_in - p_diss) / abs(p_in)


def _edge_crossings(c00, c10, c11, c01):
    """Zero crossings of corner values along the 4 cell edges, in local
    (u, v) coordinates with corners at (0,0),(1,0),(1,1),(0,1)."""
    pts = []
    edges = (
        (c00, c10, lambda t: (t, 0.0)),
        (c10, c11, lambda t: (1.0, t)),
        (c11, c01, lambda t: (1.0 - t, 1.0)),
        (c01, c00, lambda t: (0.0, 1.0 - t)),
    )
    for a, b, place in edges:
        if a == 0.0 and b == 0.0:
            continue
        if (a <= 0.0 < b) or (b <= 0.0 < a):
            t = a / (a - b)
            pts.append(place(t))
    return pts


def _line_through(pts):
    """(normal, offset) of the straight line through two points."""
    (x0, y0), (x1, y1) = pts[0], pts[1]
    nxv, nyv = y1 - y0, x0 - x1
    return nxv, nyv, nxv * x0 + nyv * y0


def nodal_vortices(field: ComplexField) -> list[Vortex]:
    """Phase singularities: cells where Re(V) and Im(V) nodal lines cross.

    Winding from the accumulated wrapped phase around the cell; sub-cell
    position from the intersection of the two linearly interpolated
    zero-crossing chords.
    """
    geom = field.geometry
    v = field.values
    inter = geom.interior
    cell_ok = inter[:-1, :-1] & inter[1:, :-1] & inter[1:, 1:] & inter[:-1, 1:]
    c00 = v[:-1, :-1]
    c10 = v[1:, :-1]
    c11 = v[1:, 1:]
    c01 = v[:-1, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (np.angle(c10 / c00) + np.angle(c11 / c10)
             + np.angle(c01 / c11) + np.angle(c00 / c01))
    winding = np.zeros(w.shape, dtype=int)
    good = cell_ok & np.isfinite(w)
    winding[good] = np.rint(w[good] / (2.0 * pi)).astype(int)

    a0 = geom.spacing
    out = []
    for i, j in np.argwhere(winding != 0):
        corners = (v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1])
        re_pts = _edge_crossings(*(c.real for c in corners))
        im_pts = _edge_crossings(*(c.imag for c in corners))
        u = vv = 0.5
        if len(re_pts) >= 2 and len(im_pts) >= 2:
            a1, b1, d1 = _line_through(re_pts)
            a2, b2, d2 = _line_through(im_pts)
            det = a1 * b2 - a2 * b1
            if abs(det) > 1e-30:
                u = (d1 * b2 - d2 * b1) / det
                vv = (a1 * d2 - a2 * d1) / det
                u = min(max(u, 0.0), 1.0)
                vv = min(max(vv, 0.0), 1.0)
        out.append(Vortex(x=a0 * (i + u), y=a0 * (j + vv),
                          winding=int(winding[i, j])))
    return out


def active_link_flow(field: ComplexField, currents: CurrentField) -> tuple:
    """Time-averaged active power flow Re(V conj(I)) / 2 on each link.

    Returns staggered components (fx, fy): fx[i, j] lives at the midpoint
    of the link (i,j)-(i+1,j), fy at (i,j)-(i,j+1).
    """
    v = field.values
    fx = np.zeros(v.shape)
    fy = np.zeros(v.shape)
    # power delivered from site (i,j) toward +x/+y; the stored current is
    # oriented toward the lower site, hence the minus sign
    fx[:-1, :] = -0.5 * np.real(v[:-1, :] * np.conj(currents.ix[:-1, :]))
    fy[:, :-1] = -0.5 * np.real(v[:, :-1] * np.conj(currents.iy[:, :-1]))
    fx[~currents.mask_x] = 0.0
    fy[~currents.mask_y] = 0.0
    return fx, fy


def trace_streamlines(field: ComplexField, currents: CurrentField, seeds,
                      step: float, max_steps: int) -> list:
    """RK4 traces of the active-flow direction field.

    The staggered flow is interpolated bilinearly, clamped at the lattice
    edge.  A trace stops at the billiard boundary, after max_steps, or when
    the local |flow| drops below FLOW_CUTOFF of the field maximum (vortex
    core).  Returns one (n, 2) array of points per seed.
    """
    # imported here: only the tracer needs scipy.ndimage
    from scipy.ndimage import map_coordinates

    geom = field.geometry
    a0 = geom.spacing
    if step > 0.5 * a0:
        raise ValueError("step must be <= a0/2")
    fx, fy = active_link_flow(field, currents)
    fmax = max(np.abs(fx).max(), np.abs(fy).max())
    cutoff = FLOW_CUTOFF * fmax

    def direction(x, y):
        u, w = x / a0, y / a0
        # fx[i, j] sits at (i + 1/2, j), fy[i, j] at (i, j + 1/2)
        gx = map_coordinates(fx, (u - 0.5, w), order=1, mode="nearest")
        gy = map_coordinates(fy, (u, w - 0.5), order=1, mode="nearest")
        mag = np.hypot(gx, gy)
        alive = mag > cutoff
        safe = np.where(alive, mag, 1.0)
        return gx / safe, gy / safe, alive

    x = np.array([s[0] for s in seeds], dtype=float)
    y = np.array([s[1] for s in seeds], dtype=float)
    inside = geom.contains(x, y)
    if not np.all(inside):
        bad = np.argmin(inside)
        raise ValueError(f"seed {(x[bad], y[bad])} outside interior")
    xs, ys = [x], [y]
    # a stopped seed never restarts: its polyline is the first n_points[k]
    # rows of the stacked positions
    n_points = np.ones(x.shape, dtype=int)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(max_steps):
        if not np.any(active):
            break
        d1x, d1y, a1 = direction(x, y)
        d2x, d2y, a2 = direction(x + 0.5 * step * d1x, y + 0.5 * step * d1y)
        d3x, d3y, a3 = direction(x + 0.5 * step * d2x, y + 0.5 * step * d2y)
        d4x, d4y, a4 = direction(x + step * d3x, y + step * d3y)
        active &= a1 & a2 & a3 & a4
        dx = (d1x + 2 * d2x + 2 * d3x + d4x) / 6.0
        dy = (d1y + 2 * d2y + 2 * d3y + d4y) / 6.0
        xn = np.where(active, x + step * dx, x)
        yn = np.where(active, y + step * dy, y)
        active &= geom.contains(xn, yn)
        x, y = np.where(active, xn, x), np.where(active, yn, y)
        n_points += active
        xs.append(x)
        ys.append(y)
    points = np.stack((xs, ys), axis=-1)    # (steps + 1, seeds, 2)
    return [points[:n, k] for k, n in enumerate(n_points)]
