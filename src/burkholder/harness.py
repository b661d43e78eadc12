"""Sequence generators, comparator oracles, and regret reports.

Everything here is desk-scale experiment plumbing: generate or load a
sequence, run a strategy over it (strategies.run_online), find a strong
comparator, and emit a deterministic CSV report.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import symlin
from .errors import DomainError

SEQUENCE_KINDS = ("matrix_completion", "random_vectors", "adversarial_gradient")

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


def make_sequence(kind, n, rng=None, **kw):
    if kind == "matrix_completion":
        return matrix_completion(n, rng=rng, **kw)
    if kind == "random_vectors":
        return random_vectors(n, rng=rng, **kw)
    if kind == "adversarial_gradient":
        return adversarial_gradient(n, rng=rng, **kw)
    raise DomainError(f"unknown sequence kind {kind!r}; expected one of {SEQUENCE_KINDS}")


# --- sequence CSV ------------------------------------------------------------

def save_sequence(seq, path):
    """Vectors go as x1..xd,y; matrix indicators as i,j,y."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if seq.kind == "matrix_completion":
            w.writerow(["i", "j", "y"])
            for (i, j), y in zip(seq.meta["indices"], seq.ys):
                w.writerow([i, j, f"{y:.12g}"])
        else:
            d = len(seq.xs[0])
            w.writerow([f"x{k + 1}" for k in range(d)] + ["y"])
            for x, y in zip(seq.xs, seq.ys):
                w.writerow([f"{v:.12g}" for v in x] + [f"{y:.12g}"])


def load_sequence(path, d1=None, d2=None):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DomainError(f"empty sequence file {path}")
    header, body = rows[0], rows[1:]
    if header[:3] == ["i", "j", "y"]:
        if d1 is None or d2 is None:
            raise DomainError("matrix sequences need d1 and d2")
        xs, ys, idx = [], [], []
        for row in body:
            i, j, y = int(row[0]), int(row[1]), float(row[2])
            xs.append(symlin.Entry(i, j, (d1, d2)))
            ys.append(y)
            idx.append((i, j))
        return Sequence("matrix_completion", xs, np.array(ys), {"indices": idx})
    if header[-1] != "y" or not all(h.startswith("x") for h in header[:-1]):
        raise DomainError(f"unrecognized sequence header {header}")
    xs = [np.array([float(v) for v in row[:-1]]) for row in body]
    ys = np.array([float(row[-1]) for row in body])
    return Sequence("random_vectors", xs, ys, {})


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


def comparator_losses(xs, ys, loss, w):
    """Per-round losses of the fixed linear predictor t -> <w, x_t>."""
    forward, _, _ = _design(xs)
    preds = forward(np.asarray(w, dtype=float).reshape(-1))
    return np.asarray(loss.value(preds, np.asarray(ys, dtype=float)), dtype=float)


def _project(w, shape, ball, radius):
    if ball == "l2":
        nw = np.linalg.norm(w)
        return w if nw <= radius else w * (radius / nw)
    if ball == "box":
        return np.clip(w, -radius, radius)
    if ball == "nuclear":
        return symlin.nuclear_projection(w.reshape(shape), radius).reshape(-1)
    raise DomainError(f"unknown ball {ball!r}")


def best_linear_comparator(xs, ys, loss, ball="l2", radius=1.0, iters=2000,
                           w0=None):
    """Projected subgradient descent for the best fixed linear predictor in a
    norm ball, tracking the best iterate. Deterministic given the inputs."""
    if radius < 0:
        raise DomainError("radius >= 0")
    forward, adjoint, shape = _design(xs)
    ys = np.asarray(ys, dtype=float)
    w = (np.zeros(math.prod(shape)) if w0 is None
         else np.asarray(w0, dtype=float).reshape(-1).copy())
    best_w, best_val = w.copy(), float(np.sum(loss.value(forward(w), ys)))
    for it in range(1, int(iters) + 1):
        preds = forward(w)
        g = adjoint(np.asarray(loss.subgradient(preds, ys), dtype=float))
        step = 0.5 * radius / math.sqrt(it) if radius > 0 else 0.5 / math.sqrt(it)
        w = _project(w - step * g, shape, ball, radius)
        val = float(np.sum(loss.value(forward(w), ys)))
        if val < best_val:
            best_val, best_w = val, w.copy()
    per_round = np.asarray(loss.value(forward(best_w), ys), dtype=float)
    return Comparator(best_w.reshape(shape), best_val, per_round,
                      f"{ball} ball radius {radius:g}, {iters} iterations")


def least_squares_comparator(xs, ys, loss):
    """Unregularized least-squares fit as a fixed comparator; the natural
    reference for squared-loss families with norm-dependent bounds."""
    mat, shape = _flatten(xs)
    ys = np.asarray(ys, dtype=float)
    w, *_ = np.linalg.lstsq(mat, ys, rcond=None)
    per_round = np.asarray(loss.value(mat @ w, ys), dtype=float)
    return Comparator(w.reshape(shape), float(per_round.sum()), per_round,
                      "least squares")


def comparator_grid(xs, ys, loss, radii=None, directions=None):
    """Fixed comparators rho * u over a radius grid and direction set.

    The default direction opposes the summed subgradient at the zero
    prediction, which is the steepest linear descent direction at w = 0.
    Returns a list of Comparator records, best first.
    """
    forward, adjoint, shape = _design(xs)
    ys = np.asarray(ys, dtype=float)
    if radii is None:
        radii = np.logspace(-2, 2, 41)
    if directions is None:
        g0 = adjoint(np.asarray(loss.subgradient(np.zeros(len(ys)), ys), dtype=float))
        ng = np.linalg.norm(g0)
        directions = [-g0 / ng] if ng > 0 else [np.eye(math.prod(shape))[0]]
    out = []
    for u in directions:
        u = np.asarray(u, dtype=float).reshape(-1)
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

    def to_csv(self, fh=None):
        """Writes round,loss,cum_loss,comp_loss,regret,bound,potential rows
        (n + 1 of them, round 0 included) with 12-significant-digit floats,
        so repeated runs are byte-identical."""
        own = fh is None
        buf = io.StringIO() if own else fh
        buf.write(",".join(CSV_HEADER) + "\n")
        for row in self.rows:
            buf.write(str(int(row[0])) + "," + ",".join(_fmt(v) for v in row[1:]) + "\n")
        return buf.getvalue() if own else None

    def save(self, path):
        with open(path, "w", newline="") as fh:
            self.to_csv(fh)


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
