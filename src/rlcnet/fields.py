"""Physical fields derived from a voltage solution.

Probability density, link currents, heat power, the power-balance audit,
nodal-line vortices and streamline tracing.
"""

from dataclasses import dataclass
from math import pi

import numpy as np

from .network import admittance_families
from .solve import ComplexField

PHYSICAL = "physical"
OHMIC = "ohmic"

# Zero-flow stop: a trace stops where |flow| falls below FLOW_CUTOFF of the
# field's maximum, because its direction there is 0/0 (a uniform V carries
# no flow at all).  It is not a vortex-core stop: the traces that circle a
# vortex on the a0 = 0.005 quarter stadium never see |flow| below 1.4e-5 of
# the maximum.
FLOW_CUTOFF = 1e-12
# Trapped stop: a trace stops once it has stayed within one step of its
# anchor for TRAP_STEPS consecutive steps (see trace_streamlines).  A vortex
# core captures a trace into an orbit far smaller than a step (about 0.04 a0
# at a0/4 steps on that stadium), while a free trace moves its anchor every
# other step.  There, 32, 64 and 256 all stop the same 27 of 32 traces at a
# vortex; 64 doubles 32's margin against a slow turn for 1% more points.
TRAP_STEPS = 64
STOP_REASONS = ("boundary", "trapped", "cutoff", "max_steps")


@dataclass(eq=False)
class CurrentField:
    """Complex currents on the links leaving each site toward +x and +y,
    as (nx, ny) arrays on the lattice of the field they were taken from.

    Links that do not exist in the network (neither end interior) carry 0
    and are excluded by the masks.
    """

    ix: np.ndarray        # complex, (nx, ny); link (i,j)-(i+1,j)
    iy: np.ndarray        # complex, (nx, ny); link (i,j)-(i,j+1)
    mask_x: np.ndarray    # bool, link exists
    mask_y: np.ndarray


class Streamlines(list):
    """Traced polylines, one (n, 2) array of points per seed in seed order;
    `stop_reasons[k]` says why trace k stopped, one of STOP_REASONS."""

    def __init__(self, lines, stop_reasons):
        super().__init__(lines)
        self.stop_reasons = tuple(stop_reasons)

    def stop_counts(self) -> dict:
        """Number of traces per stop reason, every reason listed."""
        return {r: self.stop_reasons.count(r) for r in STOP_REASONS}


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
    stencil = geom.stencil
    dv = stencil.link_drops(field.values)
    if variant == OHMIC:
        if field.spec.resistance <= 0.0:
            raise ValueError("ohmic currents undefined for R = 0")
        y = 1.0 / field.spec.resistance
    else:
        families = admittance_families(geom, field.spec, field.perturbation)
        y = families.units(field.omega)[0] * families.link
    i_link = dv * y
    n_x = np.count_nonzero(stencil.mask_x)
    ix = np.zeros(field.values.shape, dtype=complex)
    iy = np.zeros_like(ix)
    ix[stencil.mask_x] = i_link[:n_x]
    iy[stencil.mask_y] = i_link[n_x:]
    return CurrentField(ix=ix, iy=iy, mask_x=stencil.mask_x,
                        mask_y=stencil.mask_y)


def heat_power(currents: CurrentField, resistance: float) -> np.ndarray:
    """P(i, j) = (R/2) (|I_x|^2 + |I_y|^2) per site, as an (nx, ny) array."""
    if resistance < 0.0:
        raise ValueError("R must be >= 0")
    return 0.5 * resistance * (np.abs(currents.ix) ** 2
                               + np.abs(currents.iy) ** 2)


def power_balance(field: ComplexField) -> float:
    """Relative mismatch between injected active power and total dissipation.

    P_in = Re(V_s conj(I_s)) / 2 at the field's source; the dissipation is
    one sum of Re(1/y) |I|^2 / 2 over every network element of nonzero
    admittance y: each link, with I = y dV, and each interior site's
    shunt, with I = y V.
    """
    geom = field.geometry
    (si, sj), amplitude = field.source
    p_in = 0.5 * float(np.real(field.values[si, sj] * np.conj(amplitude)))

    stencil = geom.stencil
    families = admittance_families(geom, field.spec, field.perturbation)
    units = families.units(field.omega)
    # every interior site has one shunt; grounded boundary sites have none
    y = np.concatenate((units[0] * families.link, families.shunts(units)))
    drop = np.concatenate((stencil.link_drops(field.values),
                           field.values[geom.interior]))
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


def _clamped_knots(n, first, count):
    """Order-1 footprint of the `count` knots first, first + 1/2, ... on an
    axis of n samples clamped at both ends: (index, weight) of the lower
    sample, then of the upper one."""
    c = first + np.arange(count) / 2
    lower = np.floor(c)
    t = c - lower
    return ((np.clip(lower, 0, n - 1).astype(np.intp), 1.0 - t),
            (np.clip(np.ceil(c), 0, n - 1).astype(np.intp), t))


def _sampled(f, u_knots, w_knots):
    """Bilinear samples of f on the grid of u_knots by w_knots.  It sums the
    four corners as `map_coordinates(order=1)` does, from 0.0 in footprint
    order, each value times its u weight, then its w weight, so the two
    agree bit for bit."""
    total = 0.0
    for iu, wu in u_knots:
        rows = f.take(iu, axis=0)
        for iw, ww in w_knots:
            total = total + rows.take(iw, axis=1) * wu[:, None] * ww
    return total


def _tabulated_flow(fx, fy, a0):
    """The clamped bilinear interpolant of the staggered flow (fx, fy) as a
    function of complex positions z = x + iy, returning gx + i gy.

    It equals `map_coordinates(order=1, mode="nearest")` sampling of fx at
    (x/a0 - 1/2, y/a0) and of fy at (x/a0, y/a0 - 1/2) up to roundoff, for
    x/a0 in [-1, nx] and y/a0 in [-1, ny], and that sampling exactly at
    every half-spacing knot.
    """
    # fx has its knots at (i + 1/2, j), fy at (i, j + 1/2), and both clamps
    # act on multiples of 1/2, so gx + i gy is bilinear on every half-spacing
    # cell: c0 + tu cu + tw cw + tu tw cuw in the cell fractions (tu, tw).
    # Corner k sits at x/a0 = k/2 - 1, one site before the lattice, and the
    # last cell starts one site past it, so no position in the domain needs
    # a clamped or negative cell index.
    nx, ny = fx.shape
    n_u, n_w = 2 * nx + 4, 2 * ny + 4
    g = (_sampled(fx, _clamped_knots(nx, -1.5, n_u),
                  _clamped_knots(ny, -1.0, n_w))
         + 1j * _sampled(fy, _clamped_knots(nx, -1.0, n_u),
                         _clamped_knots(ny, -1.5, n_w)))
    c0 = g[:-1, :-1]
    cw = g[:-1, 1:] - c0
    cu = g[1:, :-1] - c0
    cuw = g[1:, 1:] - g[1:, :-1] - cw
    # one row per coefficient, one column per cell
    table = np.stack((c0, cu, cw, cuw)).reshape(4, -1)
    # the constants are 0-d arrays of the operands' own dtypes, which numpy
    # applies faster than Python scalars, with the same arithmetic
    scale, shift = np.array(2.0 / a0 + 0j), np.array(2.0 + 2.0j)
    row = np.array(n_w - 1, dtype=np.intp)

    def flow(z):
        # shifted to cell units, every point is >= 0 (up to roundoff), so
        # modf's integer part is the cell and its fraction the cell offset;
        # the fractions land in the real parts of a complex buffer, so they
        # multiply the complex coefficients as numpy's cast of a float
        # would, without the cast
        frac = np.zeros(2 * len(z), dtype=complex)
        _, whole = np.modf((z * scale + shift).view(float),
                           out=(frac.real, None))
        k = whole.astype(np.intp)
        c = table.take(k[0::2] * row + k[1::2], axis=1)
        tu, tw = frac[0::2], frac[1::2]
        return c[0] + tu * c[1] + tw * (c[2] + tu * c[3])

    return flow


def trace_streamlines(field: ComplexField, currents: CurrentField, seeds,
                      step: float, max_steps: int) -> Streamlines:
    """RK4 traces of the active-flow direction field.

    The staggered flow is interpolated bilinearly, clamped at the lattice
    edge, from a table built once per call.  A trace stops for one of
    STOP_REASONS: its next point leaves the billiard (`boundary`); it has
    stayed within one step of its anchor for TRAP_STEPS consecutive steps,
    where the anchor starts at the seed and moves to the trace whenever the
    trace gets more than one step from it (`trapped`, an orbit around a
    vortex core); the local |flow| at an RK4 stage point drops below
    FLOW_CUTOFF of the field maximum (`cutoff`, no flow to follow, or
    `boundary` when a stage point of that step lies outside the billiard);
    or it took max_steps steps.  Each step advances only the traces still
    running.
    Returns one (n, 2) array of points per seed with its stop reason.
    """
    geom = field.geometry
    a0 = geom.spacing
    if not 0.0 < step <= 0.5 * a0:
        raise ValueError("step must be > 0 and <= a0/2")
    fx, fy = active_link_flow(field, currents)
    fmax = max(np.abs(fx).max(), np.abs(fy).max())

    x = np.array([s[0] for s in seeds], dtype=float)
    y = np.array([s[1] for s in seeds], dtype=float)
    inside = geom.contains(x, y)
    if not np.all(inside):
        bad = np.argmin(inside)
        raise ValueError(f"seed {(x[bad], y[bad])} outside interior")
    if not len(x):
        return Streamlines([], ())
    # every stage point lies within a0/2 + step <= a0 of an interior site,
    # inside the table's domain
    flow = _tabulated_flow(fx, fy, a0)
    # 0-d constants, as in _tabulated_flow
    cutoff = np.array(FLOW_CUTOFF * fmax)
    half, full = np.array(0.5 * step + 0j), np.array(step + 0j)
    two, six = np.array(2.0 + 0j), np.array(6.0 + 0j)

    def direction(z):
        g = flow(z)
        mag = np.abs(g)
        alive = mag > cutoff
        # below the cutoff the raw flow is kept; the trace stops there
        return np.divide(g, mag, out=g, where=alive), alive

    # The arrays hold the live traces only: column c is trace live[c].  A
    # stopped trace never restarts.  Each record (live, rows) holds one row
    # of positions per step of the live set `live`; every compaction of the
    # arrays starts a new record, which stays empty when the next step
    # compacts them again before taking a row.
    z = x + 1j * y
    live = np.arange(len(z))
    why = ["max_steps"] * len(z)
    records = [(live, [z])]
    anchor = z.copy()   # updated in place; z is the first record's first row
    moved_at = np.zeros(len(z), dtype=int)   # last step that moved the anchor
    for t in range(1, max_steps + 1):
        d1, a1 = direction(z)
        z2 = z + half * d1
        d2, a2 = direction(z2)
        z3 = z + half * d2
        d3, a3 = direction(z3)
        z4 = z + full * d3
        d4, a4 = direction(z4)
        flowing = a1 & a2 & a3 & a4
        zn = z + full * ((d1 + two * d2 + two * d3 + d4) / six)
        go = flowing & geom.contains(zn.real, zn.imag)
        if np.count_nonzero(go) < len(go):
            # a stage point in the grounded wall band reads no flow: a
            # trace stalled there has reached the boundary, not a flow-free
            # region
            stages = np.stack((z, z2, z3, z4))
            walled = ~geom.contains(stages.real, stages.imag).all(axis=0)
            for c in np.flatnonzero(~go):
                # a trace still flowing stops because its next point is out
                at_boundary = flowing[c] or walled[c]
                why[live[c]] = "boundary" if at_boundary else "cutoff"
            zn, anchor, moved_at, live = (a[go] for a in
                                          (zn, anchor, moved_at, live))
            if not live.size:
                break
            records.append((live, []))
        z = zn
        records[-1][1].append(z)
        moved = np.abs(z - anchor) > step
        np.copyto(anchor, z, where=moved)
        np.copyto(moved_at, t, where=moved)
        trapped = t - moved_at >= TRAP_STEPS
        if trapped.any():
            for c in np.flatnonzero(trapped):
                why[live[c]] = "trapped"
            keep = ~trapped
            z, anchor, moved_at, live = (a[keep] for a in
                                         (z, anchor, moved_at, live))
            if not live.size:
                break
            records.append((live, []))
    # each trace's polyline is its column of every record, in order
    pieces = [[] for _ in why]
    for cols, rows in records:
        if rows:
            for k, points in zip(cols, np.stack(rows, axis=1)):
                pieces[k].append(points)
    return Streamlines([np.concatenate(p).view(float).reshape(-1, 2)
                        for p in pieces], why)
