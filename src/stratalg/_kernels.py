"""Bulk F_p kernels for the enumeration-heavy paths.

Everything here works on numpy arrays of residues in [0, p), one numpy
path per kernel.

Products are a*w = w @ L_a + a @ La with the left table L_a = a @ T + Lb.
Each of a @ T + Lb, w @ L_a and a @ La sums n products of residues (plus a
residue) and is reduced mod p before the next sum, so it stays below
n * p**2. bulk_multiply keeps int64 while n**2 * p**2 < 2**63 and runs the
same expressions on exact Python ints (dtype=object) above that bound.
space_products, which multiplies rows by all of K^n, runs in uint16 while
2p <= 2**16 and p**n <= 2**16. commute_rows runs on enumerable spaces only
(p**n <= 2**24), where every intermediate stays below n * p**2 <= 2**48;
there a label array with one int32 per vector (StratumPartition.codes)
takes 64 MB.
"""

import numpy as np

# perfbench/worker.py records this flag in every run.
HAS_NUMBA = False

# vectors per commute_rows elimination: this, not p**n, bounds its stacks
COMMUTE_CHUNK = 1 << 16


def inverse_table(p):
    """inv[x] = x**-1 mod p for every residue (inv[0] = 0): x**(p-2) by
    repeated squaring over all residues at once, in place. Each product of
    two residues stays below p**2 < 2**63; callers reach this only on
    enumerable spaces (p**n <= 2**24), so p <= 2**24."""
    if p * p >= 1 << 63:
        raise ValueError(f"inverse table mod {p} would overflow int64")
    inv = np.ones(p, dtype=np.int64)
    base = np.arange(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv *= base
            inv %= p
        base *= base
        base %= p
        e >>= 1
    inv[0] = 0
    return inv


def lex_indices(V, p):
    """Position of each row of V (N, n) in the lexicographic order of K^n,
    sum_c V[:, c] * p**(n-1-c). Exact Python ints (dtype=object) once
    p**n >= 2**63, where int64 would wrap."""
    n = np.shape(V)[1]
    dtype = object if p ** n >= 1 << 63 else np.int64
    powers = np.array([p ** e for e in range(n - 1, -1, -1)], dtype=dtype)
    return np.asarray(V, dtype=dtype) @ powers


def lex_digits(idx, p, n):
    """The rows (len(idx), n) at lex indices idx: lex_indices inverted,
    computed as coordinate planes so that each division runs along idx."""
    return (np.asarray(idx) // p ** np.arange(n - 1, -1, -1)[:, None] % p).T


def left_tables(T, Lb, A, p):
    """(N,n,n) residues L[m] with A[m] * w = w @ L[m] + A[m] @ La, that is
    L[m, j, k] = sum_i A[m, i] T[i, j, k] + Lb[j, k]."""
    n = T.shape[0]
    return ((A @ T.reshape(n, n * n)).reshape(-1, n, n) + Lb) % p


def space_products(L, C, p):
    """(m, p**n) lex indices (as lex_indices) of a * q = q @ L_a + C_a for
    every row a, given by its left table L (m, n, n) and its constant
    C (m, n) = a @ La % p, and every q of K^n in lex order (column 0 is 0).

    q is built one coordinate at a time from the last. Only the m * n * p
    multiples q_j * L[:, j] mod p take a product and a % p. Adding one to a
    partial coordinate (a residue) stays below 2p, and min(s, s - p) in
    uint16 reduces it (s - p wraps above s when s < p, since 2p <= 2**16);
    Horner's rule then folds the coordinates into an index below p**n.
    Inputs past either bound raise ValueError before any allocation."""
    m, n = C.shape
    if 2 * p > 1 << 16 or p ** n > 1 << 16:
        raise ValueError(f"products over {p}**{n} would overflow uint16")
    # mult[j, k, a, t] = t * L[a, j, k] mod p; planes[k, a, i] is coordinate
    # k of a * q for the i-th suffix q built so far: the long axis innermost
    mult = np.ascontiguousarray(
        L.transpose(1, 2, 0)[..., None] * np.arange(p) % p, dtype=np.uint16)
    planes = np.ascontiguousarray(C.T, dtype=np.uint16)[..., None]
    for j in range(n - 1, -1, -1):
        planes = (mult[j][..., None] + planes[:, :, None]).reshape(n, m, -1)
        np.minimum(planes, planes - p, out=planes)
    idx = planes[0]
    for k in range(1, n):
        idx *= p
        idx += planes[k]
    return idx


def bulk_multiply(T, La, Lb, A, B, p):
    """Row-paired products: out[m] = A[m] * B[m] under the operation
    (T, La, Lb). Shapes: T (n,n,n) indexed [i,j,k]; La, Lb (n,n) indexed
    [i,k]; A, B (N,n). Returns (N,n) residues."""
    n = T.shape[0]
    if n * n * p * p >= 1 << 63:
        T, La, Lb, A, B = (np.asarray(x, dtype=object)
                           for x in (T, La, Lb, A, B))
    out = np.matmul(B[:, None, :], left_tables(T, Lb, A, p))[:, 0] % p
    if La.any():
        out = (out + A @ La % p) % p
    return out


def commute_rows(T, La, Lb, V, p):
    """One commutant key row per vector: rows i and j are equal iff V[i]
    and V[j] commute with the same vectors, and a row is all zero iff V[i]
    commutes with all of K^n.

    For fixed v, w -> v*w - w*v is affine in w: w @ D_v + c_v with
    D_v[j,k] = sum_i v_i (T[i,j,k] - T[j,i,k]) + Lb[j,k] - La[j,k] and
    c_v = v @ (La - Lb). w = v solves D_v^T w = -c_v, so the system is
    consistent and the reduced row echelon form of its augmented matrix
    identifies the solution set exactly. Returns (N, n*(n+1)) int64.
    """
    N, n = V.shape
    S = (T - T.transpose(1, 0, 2)) % p
    inv = inverse_table(p)
    M = np.empty((N, n, n + 1), dtype=np.int64)  # eliminated in place
    for lo in range(0, N, COMMUTE_CHUNK):
        W = V[lo:lo + COMMUTE_CHUNK]
        D = (np.einsum("ni,ijk->njk", W, S) + (Lb - La)) % p
        M[lo:lo + len(W), :, :n] = D.transpose(0, 2, 1)
        M[lo:lo + len(W), :, n] = (W @ (Lb - La)) % p  # -c_v
        _rref(M[lo:lo + len(W)], p, inv)
    return M.reshape(N, n * (n + 1))


def _rref(M, p, inv):
    """Reduced row echelon form of every matrix in the stack M (K, r, c),
    in place, all eliminated together column by column (inv: the table of
    inverses mod p)."""
    K, rows, cols = M.shape
    below = np.arange(rows)
    top = np.zeros(K, dtype=np.int64)  # next pivot row of each matrix
    for col in range(cols):
        cand = (M[:, :, col] != 0) & (below >= top[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        ks = np.nonzero(has)[0]
        at = cand[ks].argmax(axis=1)
        to = top[ks]
        pivot = M[ks, at]
        M[ks, at] = M[ks, to]
        pivot = pivot * inv[pivot[:, col]][:, None] % p
        factor = M[ks, :, col]
        factor[np.arange(len(ks)), to] = 0
        M[ks] = (M[ks] - factor[:, :, None] * pivot[:, None, :]) % p
        M[ks, to] = pivot
        top[ks] += 1
    return M
