"""Bulk F_p kernels for the enumeration-heavy paths.

Everything here works on numpy arrays of residues in [0, p), one numpy
path per kernel.

Products are a*w = w @ L_a + a @ La with the left table L_a = a @ T + Lb.
Each of a @ T + Lb, w @ L_a and a @ La sums n products of residues (plus a
residue) and is reduced mod p before the next sum, so it stays below
n * p**2. bulk_multiply keeps int64 while n**2 * p**2 < 2**63 and runs the
same expressions on exact Python ints (dtype=object) above that bound.
commute_rows runs on enumerable spaces only (p**n <= 2**24), where every
intermediate stays below n * p**2 <= 2**48; there a label array with one
int32 per vector (StratumPartition.codes) takes 64 MB.
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
    """The rows (len(idx), n) at lex indices idx: lex_indices inverted."""
    return np.asarray(idx)[:, None] // p ** np.arange(n - 1, -1, -1) % p


def left_tables(T, Lb, A, p):
    """(N,n,n) residues L[m] with A[m] * w = w @ L[m] + A[m] @ La, that is
    L[m, j, k] = sum_i A[m, i] T[i, j, k] + Lb[j, k]."""
    n = T.shape[0]
    return ((A @ T.reshape(n, n * n)).reshape(-1, n, n) + Lb) % p


def product_lex(L, C, W, p):
    """Lex index (as lex_indices) of every product a * w = w @ L_a + a @ La,
    from the left tables L (..., n, n) of the a's (left_tables), their
    constants C (..., n) = a @ La % p and the coordinate planes W (n, ...)
    of the w's (W[j] holds coordinate j), all broadcast together.

    Output coordinate k is one plane C[..., k] + sum_j L[..., j, k] W[j]:
    n products of residues plus a residue, below n * p**2. It is reduced
    mod p once and folded into the index by Horner's rule, which stays
    below p**n. Callers scan enumerable spaces only (p**n <= 2**24, so
    p <= 2**24), where int64 holds both bounds; int32 runs while both are
    below 2**31, as always in the exhaustive scans (p**n <= 10**4 gives
    n * p**2 <= 10**8)."""
    n = len(W)
    small = n * p * p < 1 << 31 and p ** n < 1 << 31
    dtype = np.int32 if small else np.int64
    L, C, W = (np.ascontiguousarray(x, dtype=dtype) for x in (L, C, W))
    idx = 0
    for k in range(n):
        plane = C[..., k] + L[..., 0, k] * W[0]
        for j in range(1, n):
            plane += L[..., j, k] * W[j]
        plane %= p
        if k:
            idx *= p
            idx += plane
        else:
            idx = plane
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
