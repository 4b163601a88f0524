"""Experimental design for basin-value exploration.

The loop initialises with a correlation-minimised Latin hypercube, then
alternates Bayesian acquisition (GP surrogate, upper confidence bound) with
re-evaluation of the stratification objective over the full response set:

    F(y_m) = 1 / kde(y_m),   z_m = F(y_m) / max_j F(y_j)

so acquisition is pushed toward parameter regions whose basin values are
under-represented, targeting a uniform response histogram on [0, 1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream

__all__ = [
    "DesignMatrix",
    "DesignRecord",
    "build_design",
    "kde_density",
    "silverman_bandwidth",
    "objective",
    "GaussianProcess",
    "bo_step",
    "run_doe",
    "write_doe_log",
    "read_doe_log",
]

CORR_TARGET = 0.05       # design annealing stops at this max |correlation|
MAX_PROPOSALS = 200_000  # design annealing swap budget
STALL_PROPOSALS = 4096   # ... or after this many without a lower energy
KAPPA = 2.0              # UCB exploration weight
N_STARTS = 64            # acquisition multi-start seeds
N_ASCENT = 60            # acquisition ascent iterations
REFIT_EVERY = 10         # acquisitions between GP hyperparameter fits

# The first 24 rows of the Joe-Kuo direction numbers (S. Joe and F. Y. Kuo,
# SIAM J. Sci. Comput. 30 (2008) 2635; the new-joe-kuo-6.21201 set): each
# dimension's primitive polynomial with its leading and trailing 1 bits, and
# its initial direction numbers m_1..m_deg.  Dimension 1 is van der Corput.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97,
               103, 109, 115, 131, 137, 143, 145, 157)
_SOBOL_VINIT = (
    (1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
    (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11), (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63),
    (1, 3, 5, 9, 1, 25, 53), (1, 3, 1, 13, 9, 35, 107))


class SurrogateError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Latin hypercube with correlation minimisation
# ---------------------------------------------------------------------------

@dataclass
class DesignMatrix:
    points: np.ndarray        # (k, d) in the requested ranges
    levels: np.ndarray        # (k, d) unit-interval stratified levels
    ranges: list              # per-factor (lo, hi)
    max_abs_corr: float


def _max_abs_corr(levels) -> float:
    if levels.shape[1] < 2:
        return 0.0
    c = np.corrcoef(levels, rowvar=False)
    off = np.abs(c[~np.eye(c.shape[0], dtype=bool)])
    return float(off.max())


def build_design(d: int, k: int, ranges, seed) -> DesignMatrix:
    """Latin hypercube of k samples in d factors with column correlations
    annealed toward zero by random within-column swaps.

    Each column is a permutation of the centred levels (i + 0.5)/k mapped
    into its range; the achieved max |pairwise correlation| is recorded.
    """
    if d < 1 or k < 1:
        raise ValueError("d and k must be >= 1")
    ranges = [tuple(map(float, r)) for r in ranges]
    if len(ranges) != d:
        raise ValueError("one (lo, hi) range per factor required")
    rng = substream(seed, "doe", "design")
    base = (np.arange(k) + 0.5) / k
    levels = np.column_stack([base[rng.permutation(k)] for _ in range(d)])

    if d >= 2 and k >= 3:
        # anneal on the sum of squared pair correlations (smooth energy),
        # stopping once the max |corr| reaches the target, or its floor for
        # k = 3: two columns of three levels correlate at +-0.5 unless one is
        # the other or its reverse (|corr| 1), which no four columns avoid.
        # Other floors above the target (0.4 at (d, k) = (3, 4), 0.2 at
        # (4, 5)) end the run once the lowest energy seen has not fallen for
        # STALL_PROPOSALS and the current design is back at it.  The run
        # ends on the lowest max |corr| seen at a check, or a last tie.
        centred = levels - levels.mean(axis=0)
        norm = np.sqrt((centred ** 2).sum(axis=0))
        corr = (centred.T @ centred) / np.outer(norm, norm)
        np.fill_diagonal(corr, 0.0)
        floor = (0.5 if d <= 3 else 1.0) if k == 3 else 0.0
        target = max(CORR_TARGET, floor + 1e-12)     # + rounding slack
        # a swap moves a correlation by multiples of s = 12/(k(k^2 - 1));
        # at small k, leaving a plateau needs a rise in energy of the
        # order of 4 s^2 (from |corr| s/2 to 3s/2), so start no colder.
        # k = 3 reaches its floor downhill.
        s = 12 / (k * (k * k - 1))
        temp = max(1e-3, 4 * s * s) if k > 3 else 1e-3
        cool = np.exp(np.log(1e-4) / MAX_PROPOSALS)   # decay to temp*1e-4
        best, best_it = np.inf, 0
        kept, kept_top = levels, np.inf
        for it in range(MAX_PROPOSALS):
            if it % 256 == 0:
                top = float(np.abs(corr).max())
                if top < kept_top - 1e-9:            # + rounding slack
                    kept, kept_top = levels.copy(), top
                if top <= target:
                    break
                energy = float((corr ** 2).sum())
                if energy < best - 1e-9:             # + rounding slack
                    best, best_it = energy, it
                elif energy <= best + 1e-9 and it - best_it >= STALL_PROPOSALS:
                    break
            col = rng.integers(d)
            a, b = rng.integers(k), rng.integers(k)
            if a == b:
                continue
            dcorr = ((centred[a, col] - centred[b, col])
                     * (centred[b] - centred[a])) / (norm[col] * norm)
            dcorr[col] = 0.0
            new_row = corr[col] + dcorr
            d_energy = 2.0 * float((new_row ** 2).sum()
                                   - (corr[col] ** 2).sum())
            if d_energy <= 0 or rng.random() < np.exp(-d_energy / temp):
                corr[col] = new_row
                corr[:, col] = new_row
                centred[[a, b], col] = centred[[b, a], col]
                levels[[a, b], col] = levels[[b, a], col]
            temp *= cool
        if float(np.abs(corr).max()) > kept_top + 1e-9:
            levels = kept
        achieved = _max_abs_corr(levels)
    else:
        achieved = 0.0

    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    points = lo + levels * (hi - lo)
    return DesignMatrix(points=points, levels=levels, ranges=ranges,
                        max_abs_corr=achieved)


# ---------------------------------------------------------------------------
# kernel density with boundary reflection
# ---------------------------------------------------------------------------

def silverman_bandwidth(ys) -> float:
    ys = np.asarray(ys, dtype=float)
    if ys.size < 2:
        raise ValueError("auto bandwidth needs >= 2 samples")
    std = ys.std(ddof=1)
    iqr = np.subtract(*np.percentile(ys, [75, 25]))
    spread = min(std, iqr / 1.349) if iqr > 0 else std
    h = 0.9 * spread * ys.size ** (-1 / 5)
    return h if h > 1e-12 else 0.05


def kde_density(ys, bandwidth="auto"):
    """Gaussian KDE on [0, 1] with boundary reflection (method of images).

    Returns a vectorised callable; the reflected images guarantee the
    density integrates to 1 over [0, 1] up to Gaussian tail truncation
    far below 1e-6.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if bandwidth == "auto":
        h = silverman_bandwidth(ys)
    else:
        h = float(bandwidth)
        if h <= 0:
            raise ValueError("bandwidth must be positive")
    n_images = max(1, int(np.ceil(4.0 * h)) + 1)
    offsets = 2.0 * np.arange(-n_images, n_images + 1)
    centres = np.concatenate([off + sgn * ys
                              for off in offsets for sgn in (1.0, -1.0)])

    def density(x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - centres) / h
        val = np.exp(-0.5 * z ** 2).sum(axis=-1)
        return val / (ys.size * h * np.sqrt(2.0 * np.pi))

    return density


def objective(ys):
    """Stratification scores z_m = F(y_m)/max F, F = 1/kde(y_m), with the
    Silverman bandwidth (0.05 for fewer than two distinct responses).

    Recomputed over the full response set on every call (the responses'
    density changes as samples accrue).
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if ys.size == 0:
        raise ValueError("objective needs at least one sample")
    flat = ys.size < 2 or np.ptp(ys) == 0
    dens = kde_density(ys, 0.05 if flat else "auto")
    f = 1.0 / np.maximum(dens(ys), 1e-300)
    return f / f.max()


# ---------------------------------------------------------------------------
# Gaussian-process surrogate + UCB acquisition
# ---------------------------------------------------------------------------

@dataclass
class GaussianProcess:
    """Squared-exponential ARD kernel on unit-scaled inputs."""

    d: int
    length_scales: np.ndarray = None
    signal_var: float = 1.0
    noise_var: float = 1e-4
    x_train: np.ndarray = field(default=None, repr=False)
    z_train: np.ndarray = field(default=None, repr=False)
    _chol: np.ndarray = field(default=None, repr=False)
    _alpha: np.ndarray = field(default=None, repr=False)
    _z_mean: float = 0.0

    def __post_init__(self):
        if self.length_scales is None:
            self.length_scales = np.full(self.d, 0.3)

    def _kernel(self, a, b):
        diff = (a[:, None, :] - b[None, :, :]) / self.length_scales
        return self.signal_var * np.exp(-0.5 * (diff ** 2).sum(axis=-1))

    def _factorise(self):
        n = self.x_train.shape[0]
        kmat = self._kernel(self.x_train, self.x_train)
        jitter = 0.0
        while True:
            try:
                self._chol = np.linalg.cholesky(
                    kmat + (self.noise_var + jitter) * np.eye(n))
                break
            except np.linalg.LinAlgError:
                jitter = 1e-12 if jitter == 0.0 else jitter * 10.0
                if jitter > 1e-6:
                    raise SurrogateError(
                        "kernel matrix not positive definite at jitter 1e-6")
        resid = self.z_train - self._z_mean
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, resid))

    def condition(self, x, z):
        self.x_train = np.atleast_2d(np.asarray(x, dtype=float))
        self.z_train = np.asarray(z, dtype=float)
        self._z_mean = float(self.z_train.mean())
        self._factorise()

    def predict_with_grad(self, x):
        """(mean, sd, dmean/dx, dsd/dx) batched over rows of x.  The scaled
        differences are factor-major, (d, m, n); the einsums read dks as a
        C-contiguous (m, n, d) copy, as their summation order follows it."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ls = self.length_scales[:, None, None]
        diff = (np.ascontiguousarray(x.T)[:, :, None]
                - np.ascontiguousarray(self.x_train.T)[:, None, :]) / ls
        ks = self.signal_var * np.exp(-0.5 * _last_axis_sum(diff ** 2))
        dks = np.ascontiguousarray((-ks * diff / ls).transpose(1, 2, 0))
        mean = self._z_mean + ks @ self._alpha
        dmean = np.einsum("mnd,n->md", dks, self._alpha)
        w = np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, ks.T)).T
        var = self.signal_var - (ks * w).sum(axis=1)
        sd = np.sqrt(np.maximum(var, 1e-16))
        dvar = -2.0 * np.einsum("mn,mnd->md", w, dks)
        dsd = dvar / (2.0 * sd[:, None])
        return mean, sd, dmean, dsd

    def log_marginal_likelihood(self) -> float:
        resid = self.z_train - self._z_mean
        return float(-0.5 * resid @ self._alpha
                     - np.log(np.diag(self._chol)).sum()
                     - 0.5 * resid.size * np.log(2.0 * np.pi))

    def fit_hyperparameters(self):
        """Marginal-likelihood ascent over log length scales / variances."""
        from scipy import optimize

        x0 = np.log(np.concatenate([self.length_scales,
                                    [self.signal_var, self.noise_var]]))

        def neg_lml(logp):
            self.length_scales = np.exp(logp[:self.d])
            self.signal_var = float(np.exp(logp[self.d]))
            self.noise_var = float(np.exp(logp[self.d + 1]))
            try:
                self._factorise()
            except SurrogateError:
                return 1e12
            return -self.log_marginal_likelihood()

        bounds = [(np.log(0.01), np.log(10.0))] * self.d
        bounds += [(np.log(1e-4), np.log(100.0)), (np.log(1e-8), np.log(1.0))]
        res = optimize.minimize(neg_lml, x0, method="L-BFGS-B", bounds=bounds)
        neg_lml(res.x)


def _last_axis_sum(a):
    """a.sum(0) over a (d, ...) stack, rounded as numpy's ``.sum(-1)`` rounds
    a contiguous axis (d <= 128): in order below 8 terms, else in 8 strided
    accumulators added pairwise, then the remaining d % 8 terms in order."""
    d, r = a.shape[0], a.shape[0] % 8
    if d < 8:
        return np.add.reduce(a, axis=0)
    s = np.add.reduce(a[:d - r].reshape(-1, 8, *a.shape[1:]), axis=0)
    s = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    return np.add.reduce([s, *a[d - r:]], axis=0)


def _unit(x, ranges):
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    return (np.asarray(x, dtype=float) - lo) / (hi - lo)


def _from_unit(u, ranges):
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    return lo + np.asarray(u, dtype=float) * (hi - lo)


def _sobol_starts(d: int, n: int, rng) -> np.ndarray:
    """First n points of a d-dimensional Sobol' sequence (30 bits) under a
    linear matrix scramble and a digital shift (Matousek, J. Complexity 14
    (1998) 527), bit for bit as scipy 1.17's ``scipy.stats.qmc.Sobol(d,
    scramble=True, seed=rng).random(n)`` draws them: the shift and the
    lower-triangular scramble matrices come from a child of ``rng`` spawned
    as scipy spawns it, and the first point is the shift alone.  At most 24
    dimensions.
    """
    if not 1 <= d <= len(_SOBOL_POLY):
        raise ValueError(f"Sobol starts support 1 to {len(_SOBOL_POLY)} "
                         f"dimensions, not {d}")
    bits = 30
    v = np.empty((d, bits), dtype=np.int64)
    v[0] = 1
    for k in range(1, d):                       # the Joe-Kuo recurrence
        poly, row = _SOBOL_POLY[k], list(_SOBOL_VINIT[k])
        deg = poly.bit_length() - 1
        for j in range(deg, bits):
            new = row[j - deg]
            for i in range(1, deg + 1):
                if (poly >> (deg - i)) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        v[k] = row
    msb = np.arange(bits - 1, -1, -1)
    v <<= msb
    bg = rng.bit_generator
    child = np.random.Generator(type(bg)(bg.seed_seq.spawn(1)[0]))
    shift = (child.integers(2, size=(d, bits), dtype=np.uint32)
             .astype(np.int64) @ (1 << np.arange(bits)))
    ltm = np.tril(child.integers(2, size=(d, bits, bits), dtype=np.uint32)
                  .astype(np.int64))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # scramble each direction number's bits, most significant first:
    # one integer matmul mod 2 per dimension
    v_bits = (v[:, :, None] >> msb) & 1
    v = ((v_bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb)
    # Gray-code order: point i + 1 flips the direction number at the
    # lowest zero bit of i
    cols = [(i ^ (i + 1)).bit_length() - 1 for i in range(n - 1)]
    quasi = np.bitwise_xor.accumulate(np.vstack([shift, v[:, cols].T]),
                                      axis=0)
    return quasi * 2.0 ** -bits


def bo_step(x_data, z_data, ranges, seed, surrogate: GaussianProcess = None,
            kappa: float = KAPPA, refit: bool = False):
    """Next acquisition point: argmax of mu(x) + kappa*sigma(x).

    Multi-start local search from N_STARTS scrambled-Sobol seeds
    (``_sobol_starts``, at most 24 factors); all starts ascend together
    (projected gradient with per-start backtracking) using analytic
    acquisition gradients.  Deterministic for a fixed seed.
    """
    x_data = np.atleast_2d(np.asarray(x_data, dtype=float))
    z_data = np.asarray(z_data, dtype=float)
    if x_data.shape[0] < 2:
        raise ValueError("bo_step needs >= 2 records")
    d = x_data.shape[1]
    if surrogate is None:
        surrogate = GaussianProcess(d=d)
    surrogate.condition(_unit(x_data, ranges), z_data)
    if refit:
        surrogate.fit_hyperparameters()

    u = _sobol_starts(d, N_STARTS, substream(seed, "doe", "acquire-starts"))
    mean, sd, dm, ds = surrogate.predict_with_grad(u)
    acq = mean + kappa * sd
    step = np.full(N_STARTS, 0.25)
    for _ in range(N_ASCENT):
        grad = dm + kappa * ds
        u_new = np.clip(u + step[:, None] * grad, 0.0, 1.0)
        mean, sd, dm_new, ds_new = surrogate.predict_with_grad(u_new)
        acq_new = mean + kappa * sd
        improved = acq_new >= acq
        u = np.where(improved[:, None], u_new, u)
        acq = np.where(improved, acq_new, acq)
        dm = np.where(improved[:, None], dm_new, dm)
        ds = np.where(improved[:, None], ds_new, ds)
        step = np.where(improved, step * 1.1, step * 0.5)
        if step.max() < 1e-6:
            break
    best = int(np.argmax(acq))
    return _from_unit(u[best], ranges), surrogate


# ---------------------------------------------------------------------------
# the full design-of-experiments loop
# ---------------------------------------------------------------------------

@dataclass
class DesignRecord:
    x: np.ndarray
    y: float                 # response (basin value)
    z: float                 # stratification objective
    iteration: int
    source: str              # "nolh" | "acquisition"
    failed: bool = False


def run_doe(g, ranges, k_init: int, n_total: int, seed: int,
            resume=None) -> list:
    """NOLH initialisation followed by acquisition with objective
    re-evaluation after every new response.

    ``g`` is the batched response: X of shape (n, d) to responses in
    [0, 1] of shape (n,).  The design rows are scored in one call and each
    acquisition in a call of one row.  A non-finite ``y[i]`` flags record i;
    a ``RuntimeError`` or ``LinAlgError`` raised by ``g`` flags every
    record of that call, and any other exception propagates.  Flagged
    records leave the surrogate data untouched.  Passing previously logged
    records as ``resume`` replays the loop without re-running ``g`` for
    them (a resume that stops inside the design scores the missing rows in
    one call), so a campaign continues exactly from its log plus the
    master seed.
    """
    if n_total < k_init:
        raise ValueError("n_total must be >= k_init")
    d = len(ranges)
    design = build_design(d, k_init, ranges, seed)
    records = []
    replay = list(resume) if resume else []

    def evaluate(X, source):
        """Records for the rows of X: those in the log replayed, the rest
        scored in one call of ``g``."""
        old = replay[len(records):len(records) + len(X)]
        new = X[len(old):]
        ys = [r.y for r in old]
        if len(new):
            try:
                y = np.asarray(g(new), dtype=float)
            except (RuntimeError, np.linalg.LinAlgError):
                y = np.full(len(new), np.nan)
            if y.shape != (len(new),):
                raise ValueError(f"g returned shape {y.shape} for "
                                 f"{len(new)} rows")
            ys += list(y)
        xs = [np.asarray(r.x, dtype=float) for r in old] + list(new)
        for x, y in zip(xs, ys):
            records.append(DesignRecord(x=x, y=float(y), z=np.nan,
                                        iteration=len(records), source=source,
                                        failed=not np.isfinite(y)))

    evaluate(design.points, "nolh")

    def reevaluate():
        good = [r for r in records if not r.failed]
        if not good:
            return
        zs = objective(np.array([r.y for r in good]))
        for rec, z in zip(good, zs):
            rec.z = float(z)

    reevaluate()
    surrogate = GaussianProcess(d=d)
    for n in range(k_init, n_total):
        good = [r for r in records if not r.failed]
        refit = ((n - k_init) % REFIT_EVERY == 0)
        if n < len(replay):
            # replayed acquisition: keep the surrogate state in lockstep
            # without re-running the search
            if refit and len(good) >= 2:
                surrogate.condition(
                    _unit(np.array([r.x for r in good]), ranges),
                    np.array([r.z for r in good]))
                surrogate.fit_hyperparameters()
            x_next = replay[n].x
        elif len(good) < 2:
            rng = substream(seed, "doe", "fallback", n)
            x_next = _from_unit(rng.random(d), ranges)
        else:
            x_arr = np.array([r.x for r in good])
            z_arr = np.array([r.z for r in good])
            x_next, surrogate = bo_step(x_arr, z_arr, ranges, seed=seed,
                                        surrogate=surrogate, refit=refit)
        evaluate(np.asarray(x_next, dtype=float)[None, :], "acquisition")
        reevaluate()
    return records


def write_doe_log(records, path, factor_names):
    """CSV log: iter,source,<factor columns>,basin,objective."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "source"] + list(factor_names)
                        + ["basin", "objective"])
        for rec in records:
            writer.writerow([rec.iteration, rec.source]
                            + [f"{v:.17g}" for v in rec.x]
                            + [f"{rec.y:.17g}", f"{rec.z:.17g}"])


def read_doe_log(path):
    """Inverse of write_doe_log: (records, factor_names).  ValueError, naming
    the line, unless the log has a header and each row as many cells."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 4:            # iter,source,<factors>,basin,objective
            raise ValueError(f"{path}, line 1: no DOE log header")
        names = header[2:-2]
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} "
                                 f"cell(s) where the header has {len(header)}")
            x = np.array([float(v) for v in row[2:-2]])
            y, z = float(row[-2]), float(row[-1])
            records.append(DesignRecord(
                x=x, y=y, z=z, iteration=int(row[0]), source=row[1],
                failed=not np.isfinite(y)))
    return records, names
