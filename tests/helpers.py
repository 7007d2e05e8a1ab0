"""Reference helpers shared by the tests: quadrature inner products, constant
functions, the closed-form Dirichlet kernel and an index-array gather of
kernel rows by offset, independent of the strided views in toruslab."""

import numpy as np

from toruslab.grid import GridFunction, GridSpec


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """Quadrature inner product (1/G) sum f conj(g)."""
    return complex(np.sum(f.values * np.conj(g.values)) / f.spec.npoints)


def constant_function(spec: GridSpec, value=1.0) -> GridFunction:
    return GridFunction(spec, np.full(spec.sizes, value, dtype=np.complex128))


def dirichlet_kernel_closed_form(spec: GridSpec) -> np.ndarray:
    """Closed form of sum over the full lattice box of e^{2 pi i z.xi}, per axis.

    The geometric series over {-N/2, ..., N/2 - 1} evaluates to
    e^{-pi i N z} (e^{2 pi i N z} - 1) / (e^{2 pi i z} - 1), with the limit N
    at z = 0; the product over axes gives the n-dimensional kernel on grid
    offsets.
    """
    out = np.ones(spec.sizes, dtype=np.complex128)
    for ax, N in enumerate(spec.sizes):
        z = np.arange(N) / N
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.exp(-1j * np.pi * N * z) * (np.exp(2j * np.pi * N * z) - 1.0)
            den = np.exp(2j * np.pi * z) - 1.0
            vals = np.where(np.abs(den) < 1e-15, N + 0j, num / np.where(den == 0, 1, den))
        shape = [1] * spec.dim
        shape[ax] = N
        out = out * vals.reshape(shape)
    return out


def gather_offsets(values: np.ndarray, flat_rows: np.ndarray, spec: GridSpec,
                   value_rows=None) -> np.ndarray:
    """out[i, w] = values[value_rows[i], (x_r - w) mod N] for r = flat_rows[i],
    shape (rows,) + sizes, by one index array per axis; by default value row
    i serves row i.  The map is its own inverse, so it turns dense rows
    k(x_r, y) into offset rows k(x_r, x_r - z) and back."""
    sizes, dim = spec.sizes, spec.dim
    values = np.asarray(values, dtype=np.complex128).reshape((-1,) + sizes)
    if value_rows is None:
        value_rows = np.arange(len(flat_rows))
    index = [np.reshape(value_rows, (-1,) + (1,) * dim)]
    for ax, (x, n) in enumerate(zip(np.unravel_index(flat_rows, sizes), sizes)):
        offsets = (x[:, None] - np.arange(n)) % n
        index.append(offsets.reshape((-1,) + (1,) * ax + (n,) + (1,) * (dim - 1 - ax)))
    return values[tuple(index)]


def full_to_offsets(kernel: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Offset rows from the dense k(x, y) matrix."""
    return gather_offsets(kernel, np.arange(spec.npoints), spec)
