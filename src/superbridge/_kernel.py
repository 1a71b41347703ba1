"""The numpy kernels behind ``enumeration``: the arrangement cells and the screen.

Only ``realizable_patterns``, ``superbridge_census`` and
``sampled_lower_bound`` import this module, inside their bodies, so numpy
is loaded by ``sb exact``, ``sb search`` and the screen and by no process
that only checks or finds certificates. ``realizable_patterns`` describes
the arrangement kernel, ``sampled_lower_bound`` the screen's draws.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .enumeration import _DIRECTION_BOUND, DegenerateEdgeSet
from .geometry import Direction
from .linalg import SuperbridgeError, cross3, primitive_vector

#: Bound on the temporary bytes of one block of the arrangement kernel, for
#: n up to KERNEL_TEMP_BYTES // 256 - 4 edges. A block of k vertex pairs
#: takes at most 256 k (n + 4) bytes: the most measured is 215 k (n + 4), on
#: planar polygons with Python-int products and 13-digit coordinates, where
#: every edge is re-signed.
KERNEL_TEMP_BYTES = 1 << 22
# Perturbation j of a vertex v0 has d1 = -t1 if j & 2 and d2 = -t2 if j & 1;
# j & 4 swaps the circles (t1 and t2), and j & 8 negates v0, d1 and d2.
_S1, _S2 = np.array([[[1], [1], [-1], [-1]], [[1], [-1], [1], [-1]]], dtype=np.int8)


def _cells(prim: list[tuple[int, ...]]):
    """Sign bits (True for +) of the realizable patterns, rows sorted, the
    first visit of each row (16 x vertex pair + perturbation), and the
    function giving row i its witness, for the primitive edges prim."""
    circles: dict[tuple, tuple] = {}
    for p in prim:
        # first nonzero entry positive: one key for the normals +-p
        circles.setdefault(p if (p[0] or p[1] or p[2]) > 0 else (-p[0], -p[1], -p[2]), p)
    normals = list(circles.values())
    if len(normals) < 2:
        raise DegenerateEdgeSet("need at least two non-parallel edges")
    n, edge_max = len(prim), max(abs(x) for p in prim for x in p)
    dtype = np.int64 if 12 * edge_max**4 < 1 << 62 else object
    edges, circ = np.array(prim, dtype=dtype), np.array(normals, dtype=dtype)
    pa, pb = np.triu_indices(len(normals), 1)
    step = max(1, KERNEL_TEMP_BYTES // (256 * (n + 4)))
    # Where one word has room below a key, it also holds the visit index.
    spare = 64 - n if n < 64 and 16 * len(pa) <= 1 << (64 - n) else 0
    keys, first = _pack(np.zeros((0, n), dtype=bool)), np.zeros(0, dtype=np.int64)
    held, held_first = [], []  # packed rows and visit indices not merged yet
    for lo in range(0, len(pa), step):
        hi = min(lo + step, len(pa))
        na, nb = circ[pa[lo:hi]], circ[pb[lo:hi]]
        v = _cross(na, nb)
        dots = v @ edges.T
        pi, ei = np.nonzero(dots == 0)
        t1 = np.sign((_cross(v, na)[pi] * edges[ei]).sum(axis=1)).astype(np.int8)
        t2 = np.sign((_cross(v, nb)[pi] * edges[ei]).sum(axis=1)).astype(np.int8)
        lead = np.concatenate(
            [np.where(t1 != 0, _S1 * t1, _S2 * t2), np.where(t2 != 0, _S1 * t2, _S2 * t1)]
        )
        block = np.repeat((dots > 0)[:, None], 8, axis=1)  # pair - lo, perturbation j
        block[pi, :, ei] = (lead > 0).T
        held.append(_pack(block.reshape(-1, n)))
        held_first.append((16 * np.arange(lo, hi)[:, None] + np.arange(8)).ravel())
        # Merging only once the held rows outnumber the found ones keeps the
        # merge work linear in the rows signed rather than quadratic in blocks.
        if hi == len(pa) or sum(map(len, held)) > len(keys):
            keys, first = _first_rows(
                np.concatenate([keys, *held]), np.concatenate([first, *held_first]), spare
            )
            held, held_first = [], []
    # Perturbation j + 8 of a pair negates perturbation j: complement the keys.
    words, first = _first_rows(
        np.concatenate([keys, keys ^ _pack(np.ones((1, n), dtype=bool))]),
        np.concatenate([first, first + 8]),
        spare,
    )
    bits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1, count=n).view(bool)

    def witness(i: int) -> Direction:
        """Integer direction K^2 v0 + K d1 + d2 whose exact signs are row i's.

        It is a positive multiple of v0 + eps d1 + eps^2 d2 at eps = 1/K, so
        its signs are the perturbation's once K is large. Every v0 . e is an
        integer, 0 or at least 1 in size, so any K > max(|d1 . e| + |d2 . e|)
        works, and that is at most (|d1|_1 + |d2|_1) * edge_max: a trial of
        K = 2^10, 2^11, ... past this bound can only fail by an internal error.
        Each edge's signed products a, b, c with v0, d1 and d2 are taken once,
        so a trial K = 2^t is n shift-adds (a << 2t) + (b << t) + c.
        """
        pair, j = divmod(int(first[i]), 16)
        na, nb = normals[pa[pair]], normals[pb[pair]]
        v0 = cross3(na, nb)
        t1, t2 = (cross3(v0, nb), cross3(v0, na)) if j & 4 else (cross3(v0, na), cross3(v0, nb))
        g = -1 if j & 8 else 1
        s1, s2 = (-g if j & 2 else g), (-g if j & 1 else g)
        v0, d1, d2 = ([s * x for x in u] for s, u in ((g, v0), (s1, t1), (s2, t2)))
        abc = [
            [s * (u[0] * x + u[1] * y + u[2] * z) for u in (v0, d1, d2)]
            for (x, y, z), s in zip(prim, np.where(bits[i], 1, -1).tolist())
        ]
        top = ((sum(map(abs, d1)) + sum(map(abs, d2))) * edge_max).bit_length()
        t = 10
        while not all((a << 2 * t) + (b << t) + c > 0 for a, b, c in abc):
            if t >= top:
                raise SuperbridgeError("internal: witness shrink failed past its proven bound")
            t += 1
        w = ((x << 2 * t) + (y << t) + z for x, y, z in zip(v0, d1, d2))
        return Direction(tuple(Fraction(x) for x in primitive_vector(w)))

    return bits, first, witness


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two k x 3 arrays, one column at a time."""
    (x0, x1, x2), (y0, y1, y2) = x.T, y.T
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=1)


def _pack(rows: np.ndarray) -> np.ndarray:
    """Bool rows packed into big-endian uint64 words, so word order is row order."""
    packed = np.zeros((len(rows), (rows.shape[1] + 63) // 64 * 8), dtype=np.uint8)
    packed[:, : (rows.shape[1] + 7) // 8] = np.packbits(rows, axis=1)
    return packed.view(">u8").astype(np.uint64)


def _first_rows(words: np.ndarray, first: np.ndarray, spare: int):
    """The distinct rows of words in sorted order, each with its least ``first``.

    With ``spare`` > 0 words has one column, whose low ``spare`` bits are 0
    and hold every ``first``: key and index then sort as one distinct word.
    """
    if spare:
        both = np.sort(words[:, 0] | first.astype(np.uint64))
        key, first = both >> spare << spare, (both & ((1 << spare) - 1)).astype(np.int64)
        keep = np.append(True, key[1:] != key[:-1])
        return key[keep, None], first[keep]
    order = np.lexsort(words.T[::-1])
    words, first = words[order], first[order]
    start = np.flatnonzero(np.append(True, (words[1:] != words[:-1]).any(axis=1)))
    return words[start], np.minimum.reduceat(first, start)


def _descents(bits: np.ndarray) -> np.ndarray:
    """Cyclic descent count (+ then -) of every row of sign bits."""
    return (bits & ~np.roll(bits, -1, axis=1)).sum(axis=1)


def _screen(cols: list[tuple[int, ...]], samples: int, seed: int) -> int:
    """Body of ``sampled_lower_bound`` on its validated primitive edge rows."""
    mat = np.array(cols, dtype=np.int64).T  # 3 x n
    rng = random.Random(seed)

    def directions(k: int) -> np.ndarray:
        words = np.frombuffer(rng.randbytes(24 * k), dtype="<u8").reshape(k, 3)
        dirs = (words % (2 * _DIRECTION_BOUND + 1)).view(np.int64)
        dirs -= _DIRECTION_BOUND
        return dirs

    dots = directions(samples) @ mat
    bad = (dots == 0).any(axis=1)
    for _ in range(64):
        if not bad.any():
            break
        dots[bad] = directions(int(bad.sum())) @ mat
        bad = (dots == 0).any(axis=1)
    else:
        raise SuperbridgeError("could not draw generic directions")
    return int(_descents(dots > 0).max())
