"""Bit-for-bit pin of the adaptive entry points' outputs.

``OUTPUT_DIGEST`` is a SHA-256 over the output bytes (signs of zero
included) of a fixed, seeded set of 1D, 2D and 3D calls.  Any rewrite of
the point location, the evaluation or the sweeps must reproduce it exactly;
a change that only moves a last bit or flips the sign of a zero fails here,
where a tolerance-based comparison would not.
"""

import hashlib
import math

import numpy as np

from ppinterp import (
    DBI,
    PPI,
    adaptive_interpolation_1d,
    adaptive_interpolation_2d,
    adaptive_interpolation_3d,
)
from ppinterp import interpnd

from helpers import random_mesh

OUTPUT_DIGEST = "a7014906339813352cedcf8d8bbc9a25e5effa04051ea8d30c3a013f890a0c32"

INTERP = {1: adaptive_interpolation_1d, 2: adaptive_interpolation_2d, 3: adaptive_interpolation_3d}
CALLS = 300


def _mesh(rng, n):
    """A random mesh; a third of them start at 0.0, so -0.0 is a valid point."""
    x = random_mesh(rng, n)
    if rng.random() < 1 / 3:
        x = x - x[0]
    return x


def _axis(rng, x, size, order):
    """``size`` output points on mesh ``x``: uniform draws, every node,
    x[-1], duplicates and, when x[0] == 0, -0.0; then sorted, reversed or
    shuffled."""
    pts = np.concatenate([rng.uniform(x[0], x[-1], size), x, x[-1:], x[:1]])
    pts = np.concatenate([pts, rng.choice(pts, size // 4 + 1)])
    if x[0] == 0.0:
        pts = np.concatenate([pts, [-0.0, -0.0]])
    pts.sort()
    if order == 1:
        pts = pts[::-1]
    elif order == 2:
        rng.shuffle(pts)
    return pts


def digest_cases():
    """``CALLS`` seeded calls: (ndim, meshes, values, outputs, d, im, st,
    eps0, eps1)."""
    rng = np.random.default_rng(20261018)
    for k in range(CALLS):
        ndim = k % 3 + 1
        top = (41, 13, 7)[ndim - 1]
        meshes = [_mesh(rng, int(rng.integers(2, top))) for _ in range(ndim)]
        v = rng.uniform(-1.0 if k % 5 == 0 else 0.0, 1.0, [m.size for m in meshes])
        zeros = rng.random(v.shape) < 0.3
        v[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        v *= 10.0 ** int(rng.integers(-8, 9))
        size = int(rng.integers(1, (400, 20, 8)[ndim - 1]))
        outs = [_axis(rng, m, size, k // 3 % 3) for m in meshes]
        eps0, eps1 = rng.uniform(0.0, 1.0, 2)
        yield (
            ndim, meshes, v, outs, int(rng.integers(1, 9)), (DBI, PPI)[k // 9 % 2],
            k // 18 % 3 + 1, float(eps0), float(eps1),
        )
    # 2D blocks large enough that both sweeps split their lines into
    # several chunks of interpnd.CHUNK_PAIRS pairs (checked by the test)
    for order in range(3):
        x, y = _mesh(rng, 20), _mesh(rng, 300)
        v = rng.uniform(0.0, 1.0, (20, 300))
        v[rng.random(v.shape) < 0.3] = -0.0
        outs = [_axis(rng, x, 400, order), _axis(rng, y, 10, order)]
        yield 2, [x, y], v, outs, 5, PPI, order + 1, 0.01, 1.0


def sweep_chunks(meshes, outs):
    """How many chunks ``tensor_sweep`` splits each axis's lines into."""
    sizes = [m.size for m in meshes]
    chunks = []
    for k, (mesh, points) in enumerate(zip(meshes, outs)):
        lines = math.prod(sizes) // mesh.size
        step = max(1, interpnd.CHUNK_PAIRS // max(mesh.size, points.size))
        chunks.append(math.ceil(lines / step))
        sizes[k] = points.size
    return chunks


def test_output_digest():
    h = hashlib.sha256()
    calls = negative_zeros = 0
    for ndim, meshes, v, outs, d, im, st, eps0, eps1 in digest_cases():
        if calls >= CALLS:
            assert min(sweep_chunks(meshes, outs)) >= 2
        out = INTERP[ndim](*meshes, v, *outs, d, im, st, eps0, eps1)
        assert out.shape == tuple(o.size for o in outs)
        h.update(repr((ndim, out.shape)).encode())
        h.update(out.tobytes())
        calls += 1
        negative_zeros += np.count_nonzero((out == 0.0) & np.signbit(out))
    assert calls == CALLS + 3 and negative_zeros > 0
    assert h.hexdigest() == OUTPUT_DIGEST
