"""Floating-point oracles, independent of the exact engine.

Two ways to measure a local topological degree numerically:

* preimage counting: solve g(x) = v for a small regular value v by batched
  multistart Newton and sum the signs of the Jacobian determinant over the
  solutions near the origin;
* winding evaluation (plane germs only): sum the angle increments of
  g/|g| along a small circle.

The preimage oracle is only a valid measurement of the *local* degree when
the preimages near the origin are cleanly separated from any other real
zeros of g; germ_is_oracle_friendly screens for that.
"""

import numpy as np

from cuspcount.polyring import Poly


def _evaluator(polys):
    """Vectorized evaluator of polynomials in one ambient: (N, nvars) float
    array -> list of (N,) values, one per polynomial.

    Each call builds one table of the powers x_v ** k, k up to the largest
    exponent, and takes each term as the product of its variables' powers
    in variable order."""
    nv = len(polys[0].vars)
    terms = [p.sorted_terms() for p in polys]
    top = max((max(m) for ts in terms for m, _ in ts), default=0)
    # row k is (k, ..., k); a whole row is one inner loop of the power, as
    # an exponent tuple would be, so numpy takes the same power kernel
    exps = np.repeat(np.arange(top + 1, dtype=np.int64)[:, None], nv, axis=1)
    plans = [
        (np.array([float(c) for _, c in ts]),
         [np.array([m[v] for m, _ in ts], dtype=np.int64) for v in range(nv)])
        for ts in terms
    ]

    def ev(x):
        x = np.asarray(x, dtype=np.float64)
        table = x[:, None, :] ** exps[None, :, :]
        out = []
        for coeffs, idx in plans:
            # take() keeps each row contiguous, so a row sums in numpy's
            # pairwise order; a column gather would sum it term by term
            prod = table[:, :, 0].take(idx[0], axis=1)
            for v in range(1, nv):
                prod = prod * table[:, :, v].take(idx[v], axis=1)
            out.append((coeffs * prod).sum(axis=1))
        return out

    return ev


def poly_evaluator(p: Poly):
    """Vectorized evaluator: (N, nvars) float array -> (N,) values."""
    ev = _evaluator([p])
    return lambda x: ev(x)[0]


def germ_evaluator(components):
    ev = _evaluator(components)

    def germ(x):
        return np.stack(ev(x), axis=1)

    return germ


def jacobian_evaluator(components):
    from cuspcount.polyring import partial

    n = len(components)
    nv = len(components[0].vars)
    ev = _evaluator([partial(c, j) for c in components for j in range(nv)])

    def jac(x):
        return np.stack(ev(x), axis=1).reshape(-1, n, nv)

    return jac


def _batch_solve(a, b):
    """Solve a[i] @ s = b[i] without raising on singular entries; singular
    rows get NaN.  One determinant finds them, and one batched solve takes
    the others, with the identity put in for the singular ones."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = np.linalg.det(a)
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-300)
        a = np.where(bad[:, None, None], np.eye(a.shape[1]), a)
        out = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        out[bad] = np.nan
    return out


def solve_square_system(components, target, box_radius, n_starts=3000,
                        seed=0, newton_iters=60, residual_tol=1e-9,
                        cluster_tol=1e-5):
    """All solutions of g(x) = target inside the box, by multistart Newton."""
    n = len(components)
    g = germ_evaluator(components)
    jac = jacobian_evaluator(components)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box_radius, box_radius, size=(n_starts, n))
    x = np.vstack([x, np.zeros((1, n))])
    target = np.asarray(target, dtype=np.float64)
    for _ in range(newton_iters):
        x = np.clip(np.nan_to_num(x, nan=1e6), -1e6, 1e6)
        f = g(x) - target
        step = _batch_solve(jac(x), f)
        step = np.nan_to_num(step, nan=0.0)
        norm = np.linalg.norm(step, axis=1, keepdims=True)
        step = step * np.minimum(1.0, 0.2 * box_radius / np.maximum(norm, 1e-300))
        x = x - step
    f = g(x) - target
    ok = np.isfinite(x).all(axis=1)
    ok &= np.linalg.norm(f, axis=1) < residual_tol
    ok &= np.abs(x).max(axis=1) < 2.0 * box_radius
    x = x[ok]
    sols = []
    for p in x:
        if not any(np.linalg.norm(p - s) < cluster_tol for s in sols):
            sols.append(p)
    return np.array(sols) if sols else np.zeros((0, n))


def preimage_degree(components, v, local_radius, seed=0):
    """(count, degree) over preimages of v with |x| < local_radius, plus a
    flag telling whether every Jacobian sign was numerically clear."""
    sols = solve_square_system(components, v, box_radius=local_radius, seed=seed)
    if len(sols):
        sols = sols[np.linalg.norm(sols, axis=1) < local_radius]
    if not len(sols):
        return 0, 0, True
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dets = np.linalg.det(jacobian_evaluator(components)(sols))
    clear = bool(np.all(np.abs(dets) > 1e-10))
    return len(sols), int(np.sign(dets).sum()), clear


def germ_is_oracle_friendly(components, inner=0.05, outer=0.8, seed=1):
    """True when g has no real zeros in the annulus inner < |x| < outer, so
    preimages of a tiny value split cleanly into 'near origin' and 'far'."""
    zs = solve_square_system(components, np.zeros(len(components)),
                             box_radius=outer, seed=seed)
    if not len(zs):
        return True
    norms = np.linalg.norm(zs, axis=1)
    return bool(np.all((norms <= inner) | (norms >= outer)))


def winding_degree(components, center, radius, samples=1024, target=None,
                   max_depth=60):
    """Winding number of g - target along the circle of the given radius.

    target defaults to zero; passing g(center) measures the local degree of
    g at center.  Angle steps above 1 radian are bisected adaptively, so near
    misses of the target (the image of a circle around a cusp point passes
    very close to the critical value) stay resolved.
    """
    if len(components) != 2:
        raise ValueError("winding_degree needs a plane map")
    g = germ_evaluator(components)
    center = np.asarray(center, dtype=np.float64)
    offset = np.zeros(2) if target is None else np.asarray(target, dtype=np.float64)

    def angle_at(theta):
        pts = center[None, :] + radius * np.array(
            [[np.cos(theta), np.sin(theta)]]
        )
        val = g(pts)[0] - offset
        if np.hypot(val[0], val[1]) < 1e-300:
            raise RuntimeError("circle passes through the target value")
        return np.arctan2(val[1], val[0])

    def wrapped(d):
        return (d + np.pi) % (2.0 * np.pi) - np.pi

    thetas = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    angles = [angle_at(th) for th in thetas[:-1]]
    angles.append(angles[0])
    total = 0.0
    for i in range(samples):
        stack = [(thetas[i], angles[i], thetas[i + 1], angles[i + 1], 0)]
        while stack:
            t0, a0, t1, a1, depth = stack.pop()
            step = wrapped(a1 - a0)
            if abs(step) <= 1.0:
                total += step
                continue
            if depth >= max_depth:
                raise RuntimeError(
                    "winding did not stabilize; the circle effectively "
                    "touches the target value"
                )
            tm = 0.5 * (t0 + t1)
            am = angle_at(tm)
            stack.append((tm, am, t1, a1, depth + 1))
            stack.append((t0, a0, tm, am, depth + 1))
    w = int(np.round(total / (2.0 * np.pi)))
    if abs(total / (2.0 * np.pi) - w) > 1e-6:
        raise RuntimeError("winding sum is not integral")
    return w
