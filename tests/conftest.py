from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import rlcnet.geometry

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Shared list of per-criterion report lines, echoed at session end."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def _incidence(geometry):
    """Oriented incidence B of the network links over the interior sites,
    built as a sparse matrix from the site masks.

    Rows are the x links (i,j)-(i+1,j), then the y links (i,j)-(i,j+1),
    each in row-major order of the lower end; a link joins two lattice
    sites, at least one interior.  A row holds -1 at the lower end and +1
    at the upper end; a non-interior end is grounded and dropped.
    """
    inter = geometry.interior
    index = -np.ones(inter.shape, dtype=np.int64)
    index[inter] = np.arange(np.count_nonzero(inter))
    lo_ends, hi_ends = [], []
    for lo, hi in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
        link = inter[lo] | inter[hi]
        lo_ends.append(index[lo][link])
        hi_ends.append(index[hi][link])
    n_links = sum(len(e) for e in lo_ends)
    rows = np.tile(np.arange(n_links), 2)
    cols = np.concatenate(lo_ends + hi_ends)
    vals = np.repeat([-1.0, 1.0], n_links)
    keep = cols >= 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(n_links, np.count_nonzero(inter)))


def _element_admittances(geometry, spec, omega, pert):
    """Reference admittances of every element, from the closed forms of
    each element with its own multiplier m: the links in link order, and
    the shunt of each site as an (nx, ny) array (0 at a grounded
    non-interior site).

    An inductor is 1/(m (R + i omega L)), a capacitor i omega C m.
    Interior sites carry the model's shunt.
    """
    def inductor(mult):
        return 1.0 / (1j * omega * spec.inductance * mult
                      + spec.resistance * mult)

    def capacitor(mult):
        return 1j * omega * spec.capacitance * mult

    link, shunt = (inductor, capacitor) if spec.model == "I" \
        else (capacitor, inductor)
    inter = geometry.interior
    mults = []
    for lo, hi, m in ((np.s_[:-1, :], np.s_[1:, :], pert.link_x),
                      (np.s_[:, :-1], np.s_[:, 1:], pert.link_y)):
        exists = inter[lo] | inter[hi]
        mults.append(m[lo][exists])
    y_shunt = np.where(inter, shunt(pert.site), 0.0)
    return link(np.concatenate(mults)), y_shunt


def _bits_equal(got, want):
    """True when two sparse matrices hold the same bits: entry by entry on
    one pattern, or as dense arrays where `want` (a sparse product, which
    drops entries that sum to zero) lacks explicit zeros that `got` keeps."""
    got, want = sp.csc_matrix(got), sp.csc_matrix(want)
    want.sort_indices()
    if np.array_equal(got.indptr, want.indptr) \
            and np.array_equal(got.indices, want.indices):
        return np.array_equal(got.data.view(np.uint64),
                              want.data.view(np.uint64))

    def dense_bits(m):
        return np.ascontiguousarray(m.toarray()).view(np.uint64)

    return np.array_equal(dense_bits(got), dense_bits(want))


@pytest.fixture(scope="session")
def incidence():
    """Builder of the reference incidence B(geometry, unknown)."""
    return _incidence


@pytest.fixture(scope="session")
def element_admittances():
    """Reference per-element admittances (and derivatives) of a network."""
    return _element_admittances


@pytest.fixture(scope="session")
def bits_equal():
    """Bitwise comparison of a gathered operator with its sparse product."""
    return _bits_equal


class ProcessLog:
    """A list of values that this process and every process forked from it
    append to: one line, key(value), per call in a file, since what a
    forked worker appends to a Python list stays in the worker's memory.
    It compares equal to a list of values whose keys are its lines.  The
    default key is str; an object's id is the same in the process that
    made it and in the processes forked from it."""

    def __init__(self, path, key=str):
        self.path = Path(path)
        self.key = key
        self.clear()

    def append(self, value):
        # one short write in append mode: lines from several processes
        # do not interleave
        with open(self.path, "a") as fh:
            fh.write(f"{self.key(value)}\n")

    def clear(self):
        self.path.write_text("")

    def lines(self) -> list:
        return self.path.read_text().splitlines()

    def __len__(self):
        return len(self.lines())

    def __eq__(self, values):
        return self.lines() == [f"{self.key(v)}" for v in values]

    def __repr__(self):
        return f"ProcessLog({self.lines()})"


@pytest.fixture
def process_log(tmp_path):
    """Call it as process_log(name, key=str) for a new `ProcessLog`."""
    def make(name, key=str):
        return ProcessLog(tmp_path / f"{name}.log", key)
    return make


@pytest.fixture
def stencil_builds(monkeypatch, process_log):
    """`ProcessLog` of the geometry (by id) of every lattice stencil build,
    in this process or in any process forked from it."""
    builds = process_log("stencil_builds", key=id)
    build = rlcnet.geometry.lattice_stencil

    def counted(geometry):
        builds.append(geometry)
        return build(geometry)

    monkeypatch.setattr(rlcnet.geometry, "lattice_stencil", counted)
    return builds


@pytest.fixture
def perturb_eigsh(monkeypatch):
    """Call it to make every later eigsh call return its eigenvectors
    perturbed by 1e-6, far outside the residual contract."""
    def perturb():
        eigsh = spla.eigsh

        def perturbed(*args, **kwargs):
            lam, u = eigsh(*args, **kwargs)
            noise = np.random.default_rng(0).standard_normal(u.shape)
            return lam, u + 1e-6 * noise

        monkeypatch.setattr(spla, "eigsh", perturbed)
    return perturb


@pytest.fixture
def perturb_eigh(monkeypatch):
    """Call it to make every later scipy.linalg.eigh call return its
    eigenvectors perturbed by 1e-6, as `perturb_eigsh` does for ARPACK's."""
    def perturb():
        eigh = scipy.linalg.eigh

        def perturbed(*args, **kwargs):
            lam, u = eigh(*args, **kwargs)
            noise = np.random.default_rng(0).standard_normal(u.shape)
            return lam, u + 1e-6 * noise

        monkeypatch.setattr(scipy.linalg, "eigh", perturbed)
    return perturb
