"""Sequence generators, comparator oracles, and regret reports.

Everything here is desk-scale experiment plumbing: generate or load a
sequence, run a strategy over it (strategies.run_online), find a strong
comparator, and emit a deterministic CSV report.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import symlin
from .errors import DomainError

CSV_HEADER = ("round", "loss", "cum_loss", "comp_loss", "regret", "bound", "potential")


@dataclass
class Sequence:
    kind: str
    xs: list
    ys: np.ndarray
    meta: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(zip(self.xs, self.ys))

    def __len__(self):
        return len(self.xs)


def _index_probs(d, skew, rng):
    if skew <= 0:
        return None
    p = (1.0 + np.arange(d)) ** (-float(skew))
    p = p / p.sum()
    return rng.permutation(p)


def matrix_completion(n, d1, d2, rank=1, nuclear_radius=1.0, noise=0.0,
                      skew=0.0, B=1.0, rng=None):
    """Entry observations of a planted low-rank matrix.

    Instances are index entries symlin.Entry(i, j, (d1, d2)): the indicator
    matrices e_i e_j^T (spectral norm 1) without their dense storage. The
    planted matrix is rescaled to nuclear norm exactly nuclear_radius, labels
    are the revealed entries plus optional gaussian noise, clipped to [-B, B].
    skew > 0 draws indices from a permuted power-law instead of uniformly.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    u = rng.normal(size=(int(d1), int(rank)))
    v = rng.normal(size=(int(d2), int(rank)))
    planted = u @ v.T
    total = np.linalg.svd(planted, compute_uv=False).sum()
    if total > 0:
        planted = planted * (nuclear_radius / total)
    row_p = _index_probs(d1, skew, rng)
    col_p = _index_probs(d2, skew, rng)
    xs, ys, idx = [], [], []
    for _ in range(int(n)):
        i = int(rng.choice(d1, p=row_p))
        j = int(rng.choice(d2, p=col_p))
        y = planted[i, j] + (noise * rng.normal() if noise > 0 else 0.0)
        xs.append(symlin.Entry(i, j, (d1, d2)))
        ys.append(min(B, max(-B, float(y))))
        idx.append((i, j))
    return Sequence("matrix_completion", xs, np.array(ys),
                    {"planted": planted, "indices": idx})


def random_vectors(n, d, radius=1.0, noise=0.1, B=1.0, rng=None):
    """Unit-ball features with labels from a hidden linear model plus noise."""
    rng = rng if rng is not None else np.random.default_rng(0)
    w_star = rng.normal(size=int(d))
    nw = np.linalg.norm(w_star)
    if nw > 0:
        w_star = w_star / nw * float(radius)
    xs, ys = [], []
    for _ in range(int(n)):
        v = rng.normal(size=int(d))
        v = v / max(np.linalg.norm(v), 1e-12) * rng.uniform(0.0, 1.0) ** (1.0 / d)
        y = float(v @ w_star) + (noise * rng.normal() if noise > 0 else 0.0)
        xs.append(v)
        ys.append(min(B, max(-B, y)))
    return Sequence("random_vectors", xs, np.array(ys), {"w_star": w_star})


def adversarial_gradient(n, d, B=1.0, rng=None):
    """Basis vectors with labels of +-B held constant over random-length runs,
    flipping sign between runs; stresses gradient accumulation."""
    rng = rng if rng is not None else np.random.default_rng(0)
    max_run = max(2, int(math.sqrt(n)) + 1)
    xs, ys = [], []
    sign = 1.0
    remaining = int(rng.integers(1, max_run))
    for t in range(int(n)):
        e = np.zeros(int(d))
        e[t % int(d)] = 1.0
        xs.append(e)
        ys.append(sign * B)
        remaining -= 1
        if remaining == 0:
            sign = -sign
            remaining = int(rng.integers(1, max_run))
    return Sequence("adversarial_gradient", xs, np.array(ys), {})


# --- sequence CSV ------------------------------------------------------------

def load_sequence(path, d1=None, d2=None):
    """The sequence in a CSV file: the header `i,j,y` gives matrix indicators
    (d1 and d2 required), an `x1,...,xd,y` header vectors, and any other
    header raises DomainError. A malformed row or a non-finite field raises
    DomainError naming the file and the row (1 = the first after the header)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DomainError(f"empty sequence file {path}")
    header, body = rows[0], rows[1:]
    matrix = header == ["i", "j", "y"]
    if matrix and (d1 is None or d2 is None):
        raise DomainError("matrix sequences need d1 and d2")
    if not matrix and (header[-1] != "y" or not all(h.startswith("x") for h in header[:-1])):
        raise DomainError(f"unrecognized sequence header {header}")
    xs, ys = [], []
    for r, row in enumerate(body, start=1):
        try:
            if len(row) != len(header):
                raise DomainError(f"{len(row)} fields for the {len(header)} of the header")
            fields = [float(v) for v in row]
            if not all(map(math.isfinite, fields)):
                raise DomainError(f"non-finite field in {row}")
            xs.append(symlin.Entry(int(row[0]), int(row[1]), (d1, d2)) if matrix
                      else np.array(fields[:-1]))
            ys.append(fields[-1])
        except (ValueError, DomainError) as exc:
            raise DomainError(f"{path}: row {r}: {exc}") from exc
    if matrix:
        return Sequence("matrix_completion", xs, np.array(ys),
                        {"indices": [(x.i, x.j) for x in xs]})
    return Sequence("random_vectors", xs, np.array(ys), {})


# --- comparators -------------------------------------------------------------

@dataclass
class Comparator:
    w: np.ndarray
    total_loss: float
    per_round: np.ndarray
    description: str = ""


def _flatten(xs):
    mat = np.stack([np.asarray(x, dtype=float).reshape(-1) for x in xs])
    return mat, np.shape(xs[0])


def _design(xs):
    """(forward, adjoint, shape) of the map w -> (<w, x_t>)_t on flat w.

    Index entries gather w[k] and scatter with bincount, never building the
    n x (d1 d2) matrix; a gather equals the indicator-row product exactly.
    """
    if all(isinstance(x, symlin.Entry) for x in xs):
        shape = xs[0].shape
        k = np.array([x.flat_index for x in xs], dtype=np.intp)
        size = shape[0] * shape[1]
        return (lambda w: w[k],
                lambda g: np.bincount(k, weights=g, minlength=size), shape)
    mat, shape = _flatten(xs)
    return (lambda w: mat @ w), (lambda g: mat.T @ g), shape


def _project(w, shape, ball, radius):
    if ball == "l2":
        nw = np.linalg.norm(w)
        return w if nw <= radius else w * (radius / nw)
    if ball == "box":
        return np.clip(w, -radius, radius)
    return symlin.nuclear_projection(w.reshape(shape), radius).reshape(-1)


def best_linear_comparator(xs, ys, loss, ball="l2", radius=1.0, iters=2000):
    """Projected subgradient descent for the best fixed linear predictor in a
    norm ball, tracking the best iterate. Deterministic given the inputs."""
    if radius < 0:
        raise DomainError("radius >= 0")
    if ball not in ("l2", "box", "nuclear"):
        raise DomainError(f"unknown ball {ball!r}")
    forward, adjoint, shape = _design(xs)
    ys = np.asarray(ys, dtype=float)
    w = np.zeros(math.prod(shape))
    best_w, best_val = w.copy(), float(np.sum(loss.value(forward(w), ys)))
    for it in range(1, int(iters) + 1):
        preds = forward(w)
        g = adjoint(np.asarray(loss.subgradient(preds, ys), dtype=float))
        step = 0.5 * radius / math.sqrt(it)
        w = _project(w - step * g, shape, ball, radius)
        val = float(np.sum(loss.value(forward(w), ys)))
        if val < best_val:
            best_val, best_w = val, w.copy()
    per_round = np.asarray(loss.value(forward(best_w), ys), dtype=float)
    return Comparator(best_w.reshape(shape), best_val, per_round,
                      f"{ball} ball radius {radius:g}, {iters} iterations")


def least_squares_comparator(xs, ys, loss):
    """Unregularized minimum-norm least-squares fit as a fixed comparator; the
    natural reference for squared-loss families with norm-dependent bounds.

    For index entries the normal matrix is diagonal with the cell counts, so
    the fit is each observed cell's label mean and 0 on unobserved cells,
    computed by scatter without the n x (d1 d2) design.
    """
    ys = np.asarray(ys, dtype=float)
    if all(isinstance(x, symlin.Entry) for x in xs):
        forward, adjoint, shape = _design(xs)
        counts = adjoint(np.ones(len(ys)))
        w = np.divide(adjoint(ys), counts, out=np.zeros(counts.shape),
                      where=counts > 0)
        preds = forward(w)
    else:
        mat, shape = _flatten(xs)
        w, *_ = np.linalg.lstsq(mat, ys, rcond=None)
        preds = mat @ w
    per_round = np.asarray(loss.value(preds, ys), dtype=float)
    return Comparator(w.reshape(shape), float(per_round.sum()), per_round,
                      "least squares")


def comparator_grid(xs, ys, loss, radii=None):
    """Fixed comparators rho * u over a radius grid.

    The direction u opposes the summed subgradient at the zero prediction,
    which is the steepest linear descent direction at w = 0.
    Returns a list of Comparator records, best first.
    """
    forward, adjoint, shape = _design(xs)
    ys = np.asarray(ys, dtype=float)
    if radii is None:
        radii = np.logspace(-2, 2, 41)
    g0 = adjoint(np.asarray(loss.subgradient(np.zeros(len(ys)), ys), dtype=float))
    ng = np.linalg.norm(g0)
    u = -g0 / ng if ng > 0 else np.eye(1, math.prod(shape))[0]  # e_0
    out = []
    for rho in radii:
        w = rho * u
        per_round = np.asarray(loss.value(forward(w), ys), dtype=float)
        out.append(Comparator(w.reshape(shape), float(per_round.sum()),
                              per_round, f"grid radius {rho:g}"))
    out.sort(key=lambda c: c.total_loss)
    return out


# --- reports -----------------------------------------------------------------

def _fmt(x):
    return f"{float(x):.12g}"


@dataclass
class RegretReport:
    rows: list

    @property
    def final(self):
        return self.rows[-1]

    @property
    def final_regret(self):
        return self.rows[-1][4]

    @property
    def final_bound(self):
        return self.rows[-1][5]

    def to_csv(self):
        """The round,loss,cum_loss,comp_loss,regret,bound,potential rows
        (n + 1 of them, round 0 included) with 12-significant-digit floats,
        so repeated runs are byte-identical."""
        lines = [",".join(CSV_HEADER)]
        lines += [str(int(row[0])) + "," + ",".join(_fmt(v) for v in row[1:])
                  for row in self.rows]
        return "\n".join(lines) + "\n"


def build_report(trajectory, comp_per_round, bounds):
    """Assemble the per-round report.

    comp_per_round has one comparator loss per round; bounds has n + 1 values
    (the certified regret bound available after each round, starting at round
    0). regret at round t is cum_loss - cum comparator loss.
    """
    n = trajectory.n
    comp = np.asarray(comp_per_round, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if comp.shape[0] != n:
        raise DomainError(f"comparator losses: {comp.shape[0]} rows for {n} rounds")
    if bounds.shape[0] != n + 1:
        raise DomainError(f"bounds: {bounds.shape[0]} values for {n + 1} rows")
    rows = [(0, 0.0, 0.0, 0.0, 0.0, float(bounds[0]),
             float(trajectory.potential_values[0]))]
    cum = cum_comp = 0.0
    for t, r in enumerate(trajectory.rounds, start=1):
        cum += r.loss
        cum_comp += float(comp[t - 1])
        rows.append((t, float(r.loss), cum, float(comp[t - 1]), cum - cum_comp,
                     float(bounds[t]), float(trajectory.potential_values[t])))
    return RegretReport(rows)
