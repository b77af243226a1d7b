"""One stage of the storage-level law: Lindley's finite-dam step z = b + x - d_t - e_t,
unserved (-z)^+, b' = clip(z, 0, B) (z < 0 short, z >= B full, as in the storage
kernel).  A ``Law`` holds masses at point levels (atoms at 0 and B, or enumerated
discrete levels) and at Gauss-Legendre nodes on shared equal panels, one row each,
with tangents E[beta; level], beta the stages since the last pin.  Pins, unserved
energy and E[beta + 1; z < 0] (the stage's share of the right derivative in x) come
from the normal CDF, exactly 0 or 1 beyond CUT step stds of a barrier; the density is
renormalised to the CDF-exact inside mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normal import ndtr, npdf

# Gauss-Legendre nodes per panel, as fractions of the panel, and their weights
NODES = 8
_XI, _OMEGA = np.polynomial.legendre.leggauss(NODES)
_UNIT, _UNIT_W = 0.5 * (1.0 + _XI), 0.5 * _OMEGA
# Kernel band in step stds: the normal pdf beyond it is below 3e-18 of its peak.
CUT = 9.0
# Masses and kernel taps below this are zero, not subnormal (which slows every product).
_TINY = 1e-200


@dataclass(frozen=True)
class NormalStep:
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"step std must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class DiscreteStep:
    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.probs) or not self.atoms:
            raise ValueError("atoms and probs must be nonempty and equal length")
        if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("atom probabilities must be nonnegative and sum to 1")


Step = NormalStep | DiscreteStep


def as_steps(step_stds) -> list[Step]:
    """Coerce a list of stds (or ready Step objects) into Step instances."""
    return [s if isinstance(s, Step) else NormalStep(float(s)) for s in step_stds]


@dataclass(frozen=True, eq=False)
class Law:
    """Storage-level laws, one per row, before a delivery stage."""
    points: np.ndarray    # (rows, m) point levels
    mass: np.ndarray      # (rows, 2, m) mass and tangent E[beta; level] at the points
    nodes: np.ndarray     # (rows, 2, panels, NODES) the same at level (p + _UNIT[k]) * width


def empty_storage(rows: int) -> Law:
    """Every row starts with empty storage: unit mass at level 0, beta = 0."""
    return Law(np.zeros((rows, 1)), np.repeat([[[1.0], [0.0]]], rows, axis=0),
               np.zeros((rows, 2, 0, NODES)))


def levels(panels: int, width: float) -> np.ndarray:
    """Levels of the nodes on the first ``panels`` panels, flattened panel by panel."""
    return ((np.arange(panels)[:, None] + _UNIT) * width).ravel()


def advance(law: Law, step: Step, shift: np.ndarray, capacity: float, width: float,
            panels: int, memo: dict | None = None) -> tuple[np.ndarray, np.ndarray, Law]:
    """E[(-z)^+], E[beta + 1; z < 0] and the next law, per row of drifts ``shift`` = x - d_t.

    The next density lies on the first ``panels`` panels of width ``width``, and mass
    above them joins the atom at B.  ``memo`` keeps a Gaussian step's stage operator (pin
    fractions, unserved coefficients, kernels to the nodes, quadrature weights, the band's
    source panels and taps, and the next law's points), which depends on every argument
    but the law's masses: a next call that repeats them (a constant profile, once the
    panel count stops changing) does only the work on the masses, and varied drifts
    recompute it each stage.  A discrete (or zero-std) step needs a law without nodes.
    """
    if isinstance(step, NormalStep) and step.sigma > 0.0:
        return _gauss_step(law, step.sigma, shift, capacity, width, panels, memo)
    atoms, probs = (step.atoms, step.probs) if isinstance(step, DiscreteStep) else ((0.0,), (1.0,))
    rows = shift.size
    z = ((law.points + shift[:, None])[:, :, None] - np.asarray(atoms)).reshape(rows, -1)
    w = (law.mass[:, :, :, None] * np.asarray(probs)).reshape(rows, 2, -1)
    w[:, 1] += w[:, 0]                                # mass and E[beta + 1; .]
    # sums in sequence, to which a row's zero-mass padding adds nothing, bit for bit
    unserved = np.cumsum(w[:, 0] * np.maximum(-z, 0.0), axis=1)[:, -1]
    weight = np.cumsum(np.where(z < 0.0, w[:, 1], 0.0), axis=1)[:, -1]
    w[:, 1] = np.where((z < 0.0) | (z >= capacity), 0.0, w[:, 1])   # a pin resets beta
    # one point per distinct level of a row (grid levels then grow with the grid, not as
    # atoms**T), and a batch pads each row with its top level at no mass
    order = np.argsort(np.clip(z, 0.0, capacity), axis=1, kind="stable")
    z = np.take_along_axis(np.clip(z, 0.0, capacity), order, axis=1)
    run = np.cumsum(np.hstack([np.ones((rows, 1), bool), z[:, 1:] != z[:, :-1]]), axis=1) - 1
    size = int(run.max()) + 1
    points = np.repeat(z[:, -1:], size, axis=1)
    points[np.arange(rows)[:, None], run] = z
    bins = (np.arange(2 * rows).reshape(rows, 2, 1) * size + run[:, None]).ravel()
    mass = np.bincount(bins, np.take_along_axis(w, order[:, None], 2).ravel(), 2 * rows * size)
    return unserved, weight, Law(points, mass.reshape(rows, 2, size), law.nodes)


def _gauss_step(law: Law, sigma: float, shift: np.ndarray, capacity: float, width: float,
                panels: int, memo: dict | None) -> tuple[np.ndarray, np.ndarray, Law]:
    (rows, m), src = law.points.shape, law.nodes.shape[2]
    memo = {} if memo is None else memo
    key = (sigma, capacity, width, src, panels, law.points.tobytes(), shift.tobytes())
    if memo.get("key") != key:
        memo.clear()                          # the old operator goes before the new one comes
        memo.update(key=key, op=_operator(law.points, src, sigma, shift, capacity, width, panels))
    coef, fractions, to_nodes, quad_w, band, points = memo["op"]
    # the masses of every source, led by junk that ends the points on a panel boundary and
    # trailed by a zero panel: the band gathers whole panels of this one buffer
    lead, size = -m % NODES, m + src * NODES
    padded = np.empty((rows, 2, lead + size + NODES))
    w = padded[:, :, lead:lead + size]
    w[:, :, :m] = law.mass
    w[:, :, m:] = law.nodes.reshape(rows, 2, -1)
    padded[:, :, lead + size:] = 0.0
    w[:, 1] += w[:, 0]                        # mass and E[beta + 1; .] of every source
    w /= w[:, :1].sum(axis=2, keepdims=True)   # unit mass, which rounding drifts by ulps
    # into a C-ordered product: each row sums pairwise, the same bits in a batch of any size
    unserved = np.multiply(w[:, 0], coef, out=np.empty(coef.shape)).sum(axis=1)
    pinned = w @ fractions                    # [row, mass or beta + 1, short or full]
    inside = np.maximum(w.sum(axis=2) - (pinned[:, :, 0] + pinned[:, :, 1]), 0.0)
    dens = w[:, :, :m] @ to_nodes
    if src:
        _banded(padded.reshape(-1, NODES), band, dens.reshape(rows, 2, panels, NODES))
    dens *= quad_w
    quad = dens.sum(axis=2)
    dens *= np.divide(inside, quad, out=np.zeros_like(quad), where=quad > 0.0)[:, :, None]
    np.copyto(dens, 0.0, where=dens < _TINY)
    weight = pinned[:, 1, 0].copy()
    pinned[:, 1] = 0.0                        # the atoms at 0 and B: a pin resets beta
    return unserved, weight, Law(points, pinned, dens.reshape(rows, 2, panels, NODES))


def _operator(points: np.ndarray, src: int, sigma: float, shift: np.ndarray, capacity: float,
              width: float, panels: int) -> tuple:
    """A Gaussian stage's arrays that do not depend on the law's masses: the unserved
    coefficient and the short and full fractions of each source, the kernel from the
    point levels to the nodes, the nodes' quadrature weights, the band (the panels it
    gathers and its taps) and the next law's points, 0 and B."""
    rows, m = points.shape
    level = np.hstack([points, np.broadcast_to(levels(src, width), (rows, src * NODES))])
    mean = level + shift[:, None]             # of z, per source
    with np.errstate(over="ignore"):          # an overflowing ratio is its limit +-inf
        a = mean / sigma
        full = (mean - min(capacity, panels * width)) / sigma
        fractions = np.stack([_cut_ndtr(-a), _cut_ndtr(full)], 2)
        to_nodes = npdf((levels(panels, width) - mean[:, :m, None]) / sigma)
    coef = sigma * npdf(a) - mean * fractions[:, :, 0]
    band = None
    if src:   # the n panel offsets last_r - c, c < n, that hold row r's band (``_banded``)
        # past the panels that exist, a wider band changes nothing (and at a tiny B,
        # sigma / width overflows the integer or is infinite)
        half = math.floor(min(CUT * sigma / width + 1.5, src + panels))
        n = min(2 * half + 1, src + panels - 1)
        with np.errstate(over="ignore"):      # an overflowing ratio clips like its limit
            centre = np.clip(np.rint(shift / width), -src - half, panels + half).astype(int)
        last = np.clip(centre + half, n - src, panels - 1)
        source = np.arange(panels + n - 1) - last[:, None]
        gap = ((last[:, None] - np.arange(n)) * width - shift[:, None])[:, :, None, None]
        kernel = npdf((gap + (_UNIT - _UNIT[:, None]) * width) / sigma)
        kernel[kernel < _TINY] = 0.0
        source = np.where((source >= 0) & (source < src), source, src)   # src: the zero panel
        first = -(-m // NODES)                # panels of ``_gauss_step``'s buffer before the nodes
        row = (np.arange(rows)[:, None] * 2 + np.arange(2)) * (first + src + 1) + first
        band = row[:, None, :] + source[:, :, None], kernel
    # read-only rows of [0, B], one view for every row
    points = np.broadcast_to(np.array([0.0, capacity]), (rows, 2))
    return coef, fractions, to_nodes, np.tile(_UNIT_W * width, panels), band, points


def _cut_ndtr(z: np.ndarray) -> np.ndarray:
    """Phi(z) within CUT of 0, and exactly 0 or 1 beyond, where Phi(-CUT) = 1.1e-19."""
    out = (z > 0.0).astype(float)
    near = np.abs(z) <= CUT
    out[near] = ndtr(z[near])
    return out


def _banded(panel_w: np.ndarray, band: tuple, dens: np.ndarray) -> None:
    """Add to ``dens`` (rows, 2, panels, NODES) the unnormalised density at the nodes from
    the node masses, whole panels of ``panel_w`` (``_gauss_step``'s buffer).

    Between equal panels the kernel depends only on the panel offset, and row r's
    taps vanish beyond ``half`` offsets of shift_r / width (node pairs lie under a
    panel apart beyond their offset; the centre rounds by half a panel).  ``band`` holds
    the n offsets last_r - c, c < n, that hold them (or all, when fewer): work linear
    in the panel count.  They are the source panel at i = p + c, as a row of ``panel_w``
    (its zero panel for padding), and the kernel [row, c, source node, target node].
    """
    gather, kernel = band
    rows, panels = dens.shape[0], dens.shape[2]
    shifted = np.take(panel_w, gather, axis=0)   # [row, i, mass or beta + 1, node]
    out = np.zeros((rows, 2 * panels, NODES))
    for c in range(kernel.shape[1]):
        out += shifted[:, c:c + panels].reshape(rows, 2 * panels, NODES) @ kernel[:, c]
    dens += out.reshape(rows, panels, 2, NODES).transpose(0, 2, 1, 3)
