"""The numpy kernels behind ``enumeration``: the arrangement cells and the screen.

Only ``realizable_patterns``, ``superbridge_census`` and
``sampled_lower_bound`` import this module, inside their bodies, so numpy
is loaded by ``sb exact``, ``sb search`` and the screen and by no process
that only checks or finds certificates. ``_cells`` describes the
arrangement kernel, ``sampled_lower_bound`` the screen's draws.
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
#: takes at most 256 k (n + 4) bytes: the most measured is 219 k (n + 4), on
#: planar polygons with Python-int products and 13-digit coordinates, where
#: every edge is re-signed.
KERNEL_TEMP_BYTES = 1 << 22
# Perturbation j of a vertex v0 has d1 = -t1 if j & 2 and d2 = -t2 if j & 1;
# j & 4 swaps the circles (t1 and t2), and j & 8 negates v0, d1 and d2.
_S1, _S2 = np.array([[[1], [1], [-1], [-1]], [[1], [-1], [1], [-1]]], dtype=np.int8)


def _cells(prim: list[tuple[int, ...]]):
    """Sign bits (True for +) of the realizable patterns, rows sorted, the
    first visit of each row (16 x vertex pair + perturbation), and the
    function giving row i its witness, for the primitive edges prim.

    Each cell has an arrangement vertex on its boundary and is a sector
    between tangent rays of circles through it; perturbing the vertex along
    one ray, then infinitesimally toward another circle's tangent, lands in
    a flanking sector. So for each pair a < b of circle normals the vertex
    is V = N_a x N_b, with tangents T1 = V x N_a and T2 = V x N_b.
    Perturbation (V, s1 T1, s2 T2) gives edge e the sign of V . e, where
    that is 0 of s1 T1 . e, and where that is also 0 (e is then parallel to
    N_a) of s2 T2 . e, which is not 0. Swapping the circles swaps T1 and
    T2; the cells at -V are the 8 rows negated.

    The tangents are never formed. Where V . e = 0, e lies in
    span(N_a, N_b), so N_a x e = lam V for some lam, and
    T1 . e = V . (N_a x e) = lam |V|^2 has the sign of (N_a x e) . sgn(V),
    with sgn taken entrywise; it is 0 exactly when e is parallel to N_a.
    That is e . (sgn(V) x N_a), so each pair forms sgn(V) x N_a, and
    sgn(V) x N_b for T2 . e. With M the largest |entry| of an edge, the
    entries of V are at most 2M^2 and those of sgn(V) x N at most 2M in
    size, so |e . (sgn(V) x N)| <= 6M^2 and |V . e| <= 6M^3.

    While 6M^3 < 2^62, V . e is one int64 product. Past that,
    ``_limb_shift`` gives a bit s, and V = 2^s H + L with H = V >> s and
    0 <= L < 2^s entrywise. Then h = H . e + (L . e >> s) and
    l = L . e mod 2^s give V . e = 2^s h + l with 0 <= l < 2^s, so
    2h + (l != 0) has the sign and the zeros of V . e. With
    c = ceil(2M^2 / 2^s) >= |H|, every sum of products stays within
    |L . e| <= 3(2^s - 1)M and |2h + 1| <= 6(c + 1)M + 1. The shift is
    s = bitlen(4M^2) // 2, so sqrt(2) M < 2^s <= 2 sqrt(2) M, and these
    two bounds and 6M^2 are all below 6 sqrt(2) M^2 + 12M + 1. So int64
    holds while that is below 2^63, which is 18M^4 < 2^124 up to the low
    terms: for M below about 2^29.9. ``_limb_shift`` checks the three
    bounds exactly, which hold up to M = 1,181,805,795 (about 2^30.14);
    past it the products are Python ints.

    Pairs run in blocks within KERNEL_TEMP_BYTES. Only the 8 perturbations
    at +V are signed: their rows, built word-aligned and packed by one flat
    packbits into big-endian 64-bit words, so that word order is tuple
    order, are held block by block and merge into those found so far
    whenever the held rows outnumber them. The last merge also takes the
    complements of every row, which stand for the 8 at -V (a row seen as
    perturbation j of a pair is negated as j + 8), so each pattern keeps
    its first triple (v0, d1, d2) in visit order: pair, 8 perturbations,
    their 8 negations.
    """
    circles: dict[tuple, tuple] = {}
    for p in prim:
        # first nonzero entry positive: one key for the normals +-p
        circles.setdefault(p if (p[0] or p[1] or p[2]) > 0 else (-p[0], -p[1], -p[2]), p)
    normals = list(circles.values())
    if len(normals) < 2:
        raise DegenerateEdgeSet("need at least two non-parallel edges")
    n, edge_max = len(prim), max(abs(x) for p in prim for x in p)
    shift = _limb_shift(edge_max)
    dtype = object if shift is None else np.int64
    edges, circ = np.array(prim, dtype=dtype), np.array(normals, dtype=dtype)
    r = np.arange(len(normals))
    pa, pb = np.nonzero(r[:, None] < r)
    step = max(1, KERNEL_TEMP_BYTES // (256 * (n + 4)))
    # Where one word has room below a key, it also holds the visit index.
    spare = 64 - n if n < 64 and 16 * len(pa) <= 1 << (64 - n) else 0
    width = -(-n // 64) * 64  # bits of a row's whole words
    flip = _pack(np.arange(width) < n)  # a row's first n bits: its complement mask
    keys, first = flip[:0], np.zeros(0, dtype=np.int64)
    held, held_first = [], []  # packed rows and visit indices not merged yet
    for lo in range(0, len(pa), step):
        hi = min(lo + step, len(pa))
        na, nb = circ[pa[lo:hi]], circ[pb[lo:hi]]
        v = _cross(na, nb)
        if shift:  # two limbs: V . e = 2^s h + l, signed as 2h + (l != 0)
            mask = (1 << shift) - 1
            low = (v & mask) @ edges.T
            dots = 2 * ((v >> shift) @ edges.T + (low >> shift)) + (low & mask != 0)
        else:
            dots = v @ edges.T
        pi, ei = np.nonzero(dots == 0)
        sv, e0 = np.sign(v), edges[ei]
        t1 = np.sign((_cross(sv, na)[pi] * e0).sum(axis=1)).astype(np.int8)
        t2 = np.sign((_cross(sv, nb)[pi] * e0).sum(axis=1)).astype(np.int8)
        lead = np.concatenate(
            [np.where(t1 != 0, _S1 * t1, _S2 * t2), np.where(t2 != 0, _S1 * t2, _S2 * t1)]
        )
        block = np.zeros((hi - lo, 8, width), dtype=bool)  # pair - lo, perturbation j, edge
        block[:, :, :n] = (dots > 0)[:, None]
        block[pi, :, ei] = (lead > 0).T
        held.append(_pack(block))
        held_first.append((16 * np.arange(lo, hi)[:, None] + np.arange(8)).ravel())
        # Merging only once the held rows outnumber the found ones keeps the
        # merge work linear in the rows signed rather than quadratic in blocks.
        if hi == len(pa) or sum(map(len, held)) > len(keys):
            words, visits = np.concatenate([keys, *held]), np.concatenate([first, *held_first])
            if hi == len(pa):  # perturbation j + 8 of a pair negates perturbation j
                words, visits = np.concatenate([words, words ^ flip]), np.append(visits, visits + 8)
            keys, first = _first_rows(words, visits, spare)
            held, held_first = [], []
    bits = np.unpackbits(keys.astype(">u8").view(np.uint8), axis=1, count=n).view(bool)

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
    """Bool rows of whole 64-bit words packed into big-endian words, as native
    uint64, so word order is row order."""
    words = np.packbits(rows.ravel()).view(">u8").astype(np.uint64)
    return words.reshape(-1, rows.shape[-1] // 64)


def _limb_shift(edge_max: int):
    """How ``_cells`` takes V . e for edge entries of size at most edge_max:
    0 for one int64 product, s > 0 for two int64 limbs split at bit s, or
    None for Python ints (``_cells`` derives the bounds checked)."""
    if 6 * edge_max**3 < 1 << 62:
        return 0
    s = (4 * edge_max**2).bit_length() // 2
    c = -(-2 * edge_max**2 >> s)
    sums = (3 * ((1 << s) - 1) * edge_max, 6 * (c + 1) * edge_max + 1, 6 * edge_max**2)
    return s if max(sums) < 1 << 63 else None


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


def _screen(cols: list[tuple[int, ...]], samples: int, seed: int, stop_above=None) -> int:
    """Body of ``sampled_lower_bound`` on its validated primitive edge rows.

    The ``samples`` directions are read in one chunk, or with ``stop_above``
    in chunks of 8, 16, 32, ... directions: 24 bytes each, so every chunk is
    whole 32-bit words of the stream and the chunks read the same bytes as
    one call. Non-generic directions are skipped, and the result is the most
    descents over the generic ones read, 0 if there are none. With
    ``stop_above`` the screen stops after the first chunk that takes that
    maximum above it; the full screen reads the same chunk, so the two
    exceed ``stop_above`` together.
    """
    mat = np.array(cols, dtype=np.int64).T  # 3 x n
    rng = random.Random(seed)
    most, read, k = 0, 0, samples if stop_above is None else 8
    while read < samples and (stop_above is None or most <= stop_above):
        k = min(k, samples - read)
        words = np.frombuffer(rng.randbytes(24 * k), dtype="<u8").reshape(k, 3)
        dots = ((words % (2 * _DIRECTION_BOUND + 1)).view(np.int64) - _DIRECTION_BOUND) @ mat
        most = max(most, int(_descents(dots > 0)[dots.all(axis=1)].max(initial=0)))
        read, k = read + k, 2 * k
    return most
