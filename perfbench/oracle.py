"""Exact oracles for the output checks, built from symbol evaluation alone.

Every oracle here sums the defining series directly,

    (T f)(x) = sum_xi e^{2 pi i x.xi} p(x, xi) fhat(xi),
    fhat(xi) = (1/G) sum_y e^{-2 pi i y.xi} f(y),

with p taken from ``toruslab.symbols.eval_expr`` and no call into
``toruslab.operators``, so a later fast path in the operators cannot make
its own oracle agree with it.  Work is chunked over grid rows to keep the
phase tables small.
"""

from __future__ import annotations

import numpy as np

from toruslab.symbols import eval_expr

ROWS = 256  # grid rows per chunk: at most ROWS x L complex entries live at once


class CheckFailed(Exception):
    """An output differs from its truth or oracle."""


def _phases(x: np.ndarray, xi: np.ndarray, sign: float) -> np.ndarray:
    return np.exp(sign * 2j * np.pi * (x @ xi.T))


def _table(expr, params, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    xs = tuple(x[:, j][:, None] for j in range(x.shape[1]))
    xis = tuple(xi[:, j][None, :] for j in range(xi.shape[1]))
    return np.asarray(eval_expr(expr, xs, xis, params), dtype=np.complex128)


def _chunks(G: int):
    for start in range(0, G, ROWS):
        yield slice(start, min(start + ROWS, G))


def _points(spec):
    return spec.points(), spec.lattice().points().astype(float)


def transform(spec, values: np.ndarray) -> np.ndarray:
    """fhat on the lattice, flat in lattice order, by direct summation."""
    x, xi = _points(spec)
    f = np.asarray(values, dtype=np.complex128).ravel()
    out = np.zeros(len(xi), dtype=np.complex128)
    for rows in _chunks(spec.npoints):
        out += _phases(x[rows], xi, -1.0).T @ f[rows]
    return out / spec.npoints


def apply(expr, params, spec, values: np.ndarray) -> np.ndarray:
    """Op(p) f by direct summation, shape ``spec.sizes``."""
    x, xi = _points(spec)
    fhat = transform(spec, values)
    out = np.empty(spec.npoints, dtype=np.complex128)
    for rows in _chunks(spec.npoints):
        out[rows] = (_phases(x[rows], xi, 1.0) * _table(expr, params, x[rows], xi)) @ fhat
    return out.reshape(spec.sizes)


def apply_adjoint(expr, params, spec, values: np.ndarray) -> np.ndarray:
    """Op(p)* g for the 1/G inner product: F^H A^H g with A = e^{2 pi i x.xi} p(x, xi)."""
    x, xi = _points(spec)
    g = np.asarray(values, dtype=np.complex128).ravel()
    acc = np.zeros(len(xi), dtype=np.complex128)
    for rows in _chunks(spec.npoints):
        a = _phases(x[rows], xi, 1.0) * _table(expr, params, x[rows], xi)
        acc += a.conj().T @ g[rows]
    out = np.empty(spec.npoints, dtype=np.complex128)
    for rows in _chunks(spec.npoints):
        out[rows] = _phases(x[rows], xi, 1.0) @ acc
    return (out / spec.npoints).reshape(spec.sizes)


def kernel_row(expr, params, spec, row: int) -> np.ndarray:
    """k(x_row, y) = sum_xi e^{2 pi i (x_row - y).xi} p(x_row, xi) over all y, flat."""
    x, xi = _points(spec)
    weights = _phases(x[row : row + 1], xi, 1.0)[0] * _table(expr, params, x[row : row + 1], xi)[0]
    out = np.empty(spec.npoints, dtype=np.complex128)
    for rows in _chunks(spec.npoints):
        out[rows] = _phases(x[rows], xi, -1.0) @ weights
    return out


def top_singular_value(expr, params, spec) -> float:
    """Largest singular value of the dense matrix M[x, y] = (1/G) k(x, y)."""
    x, xi = _points(spec)
    A = _phases(x, xi, 1.0) * _table(expr, params, x, xi)
    F = _phases(xi, x, -1.0) / spec.npoints
    return float(np.linalg.svd(A @ F, compute_uv=False)[0])


def require_close(got, want, what: str, tol: float = 1e-10):
    """Max abs difference at most ``tol`` times the oracle's max modulus."""
    got = np.asarray(got).ravel()
    want = np.asarray(want).ravel()
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != oracle shape {want.shape}")
    scale = max(float(np.max(np.abs(want))), 1e-30)
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= tol:
        raise CheckFailed(f"{what}: relative error {err:.3e} > {tol:g}")


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)
