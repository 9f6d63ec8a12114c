"""Bulk F_p kernels against the scalar definitions, and frozen discovery
output."""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stratalg import (AffineOperation, Field, FieldElement, StructureTensor,
                      builtin_model, discover_strata, multiply, symbolic_model,
                      vector)
from stratalg import _kernels
from stratalg.algebra import BUILTIN_NAMES
from stratalg.dynamics import EXHAUSTIVE_SPACE
from stratalg.field import is_prime
from stratalg.kex import BRUTE_FORCE_CAP
from stratalg.strata import space_matrix, to_dense_arrays


def bulk_reference(model, A, B):
    """Scalar reference for the vectorized kernels."""
    f = model.field
    out = []
    for a, b in zip(A, B):
        prod = multiply(model.operation, vector(f, a), vector(f, b))
        out.append([int(str(x)) for x in prod])
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("name,params,p,n", [
    ("parametric3", (2, 3, 5, 1, 4, 6), 7, 3),
    ("nonlinear3", (2, 3, 5, 1, 4, 6), 7, 3),
    ("parametric4", (2, 3, 5, 7, 11, 13), 5, 4),
])
def test_bulk_multiply_matches_scalar_multiply(name, params, p, n):
    model = builtin_model(name, params=params, field=Field(p))
    T, La, Lb = to_dense_arrays(model.operation, p)
    rng = np.random.default_rng(0)
    A = rng.integers(0, p, size=(3000, n))
    B = rng.integers(0, p, size=(3000, n))
    want = bulk_reference(model, A, B)
    assert np.array_equal(_kernels.bulk_multiply(T, La, Lb, A, B, p), want)


# n = 3 switches to exact Python ints at n**2 * p**2 >= 2**63, that is from
# p = 1012333500 on; 34359738337 (about 2**35) wrapped every row in int64
@pytest.mark.parametrize("p", [1012333499, 1012333519, 34359738337])
def test_bulk_multiply_is_exact_past_the_int64_bound(p):
    rng = np.random.default_rng(p)
    params = tuple(int(x) for x in rng.integers(0, p, size=6))
    model = builtin_model("nonlinear3", params=params, field=Field(p))
    T, La, Lb = to_dense_arrays(model.operation, p)
    A = rng.integers(0, p, size=(50, 3))
    B = rng.integers(0, p, size=(50, 3))
    want = bulk_reference(model, A, B)
    assert np.array_equal(_kernels.bulk_multiply(T, La, Lb, A, B, p), want)


def defining_sums(T, La, Lb, A, B, p):
    """(a*b)_k = sum T[i,j,k] a_i b_j + sum La[i,k] a_i + sum Lb[j,k] b_j,
    row by row on Python ints."""
    n = T.shape[0]
    T, La, Lb = T.tolist(), La.tolist(), Lb.tolist()
    return [[(sum(T[i][j][k] * a[i] * b[j]
                  for i in range(n) for j in range(n))
              + sum(La[i][k] * a[i] + Lb[i][k] * b[i] for i in range(n)))
             % p for k in range(n)]
            for a, b in zip(A.tolist(), B.tolist())]


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_tables_give_the_defining_sums(p, n):
    """w @ left_tables(a) + a @ La is a*w, on dense operations with both
    linear parts, and bulk_multiply agrees row by row."""
    rng = np.random.default_rng(100 * p + n)
    T = rng.integers(0, p, size=(n, n, n))
    La, Lb = rng.integers(0, p, size=(2, n, n))
    A, B = rng.integers(0, p, size=(2, 200, n))
    want = defining_sums(T, La, Lb, A, B, p)
    L = _kernels.left_tables(T, Lb, A, p)
    assert L.shape == (200, n, n) and 0 <= L.min() and L.max() < p
    got = (np.matmul(B[:, None, :], L)[:, 0] + A @ La) % p
    assert got.tolist() == want
    assert _kernels.bulk_multiply(T, La, Lb, A, B, p).tolist() == want


# the largest prime with n**2 * p**2 < 2**63 for each n: the last int64
# case, with every residue at p - 1 so each sum is as large as it gets
@pytest.mark.parametrize("n,p", [(1, 3037000493), (2, 1518500213),
                                 (4, 759250111)])
def test_bulk_multiply_is_exact_at_the_int64_bound(n, p):
    rng = np.random.default_rng(n)
    T = np.full((n, n, n), p - 1, dtype=np.int64)
    La = np.full((n, n), p - 1, dtype=np.int64)
    Lb = La.copy()
    A = np.vstack([np.full((1, n), p - 1), rng.integers(0, p, size=(20, n))])
    B = np.vstack([np.full((1, n), p - 1), rng.integers(0, p, size=(20, n))])
    got = _kernels.bulk_multiply(T, La, Lb, A, B, p)
    assert got.dtype == np.int64
    assert got.tolist() == defining_sums(T, La, Lb, A, B, p)


# 32749 is the largest prime with 2p <= 2**16, the last n = 1 case inside
# space_products' uint16 bound; n runs to 4 as in the enumerable spaces
@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 7)
                                 for n in (1, 2, 3, 4)] + [(32749, 1)])
@pytest.mark.parametrize("affine", [False, True], ids=["linear", "affine"])
def test_product_lex_matches_bulk_multiply(p, n, affine):
    """The lex indices of products, as space_products returns them, against
    bulk_multiply + lex_indices: every row of A
    by every q of K^n in lex order, with and without a left linear part, a
    row of all p - 1 among the operands; and the largest sums, with every
    table entry and constant at p - 1."""
    rng = np.random.default_rng(10 * p + n)
    T = rng.integers(0, p, size=(n, n, n))
    La, Lb = rng.integers(0, p, size=(2, n, n))
    La *= affine
    A = np.vstack([np.full((1, n), p - 1), rng.integers(0, p, (30, n))])
    Q = _kernels.lex_digits(np.arange(p ** n), p, n)
    got = _kernels.space_products(_kernels.left_tables(T, Lb, A, p),
                                  A @ La % p, p)
    assert got.dtype == np.uint16
    want = _kernels.lex_indices(_kernels.bulk_multiply(
        T, La, Lb, np.repeat(A, len(Q), axis=0), np.tile(Q, (len(A), 1)),
        p), p)
    assert got.tolist() == want.reshape(len(A), len(Q)).tolist()
    top = _kernels.space_products(np.full((1, n, n), p - 1),
                                  np.full((1, n), p - 1), p)
    digit = (p - 1) * (1 + Q.sum(axis=1)) % p
    assert top[0].tolist() == (digit * sum(p ** e for e in range(n))).tolist()


# 32771 is the first prime with 2p > 2**16; 257**2 and 41**3 pass 2**16
@pytest.mark.parametrize("p,n", [(32771, 1), (257, 2), (41, 3)])
def test_space_products_refuse_past_the_uint16_bound(p, n):
    """Refused with ValueError before any array is built: the traced peak
    stays below the smallest table the kernel would allocate."""
    L, C = np.zeros((64, n, n), dtype=np.int64), np.zeros((64, n), np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="uint16"):
            _kernels.space_products(L, C, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_scanned_spaces_fit_the_space_products_bound():
    """Every p**n that the exhaustive scan (EXHAUSTIVE_SPACE) or recovery
    (nonzero + nonzero**2 <= BRUTE_FORCE_CAP) admits runs in
    space_products, checked at the largest prime for each n; raising either
    constant past the uint16 bound fails here."""
    nonzero = (math.isqrt(4 * BRUTE_FORCE_CAP + 1) - 1) // 2
    assert nonzero + nonzero ** 2 <= BRUTE_FORCE_CAP
    assert (nonzero + 1) + (nonzero + 1) ** 2 > BRUTE_FORCE_CAP
    for space in (EXHAUSTIVE_SPACE, nonzero + 1):
        for n in range(1, space.bit_length()):
            p = max(q for q in range(2, int(space ** (1 / n)) + 2)
                    if q ** n <= space and is_prime(q))
            got = _kernels.space_products(np.zeros((1, n, n), np.int64),
                                          np.zeros((1, n), np.int64), p)
            assert got.shape == (1, p ** n)


@pytest.mark.parametrize("p,n", [(2, 1), (7, 4), (2147483659, 3)])
def test_lex_indices_count_in_lexicographic_order(p, n):
    """Python-int reference; p = 2147483659 and n = 3 pass 2**63."""
    rng = np.random.default_rng(p + n)
    V = rng.integers(0, p, size=(50, n))
    want = [sum(int(x) * p ** (n - 1 - c) for c, x in enumerate(row))
            for row in V]
    assert list(_kernels.lex_indices(V, p)) == want
    if p ** n <= 10 ** 4:
        assert np.array_equal(_kernels.lex_indices(space_matrix(p, n), p),
                              np.arange(1, p ** n))


def random_operation(rng, p, n, central):
    """Dense (T, La, Lb) whose commutator parts T - T^t and La - Lb are
    sparse, so that commutants come in classes of several sizes. With
    central set, e_0 commutes with everything."""
    sparse = lambda shape: (rng.integers(0, p, size=shape)
                            * (rng.random(shape) < 0.3))
    X = rng.integers(0, p, size=(n, n, n))
    Y = sparse((n, n, n))
    dL = sparse((n, n))
    if central:
        Y[0] = Y[:, 0] = dL[:] = 0
    T = (X + X.transpose(1, 0, 2) + Y) % p
    La = rng.integers(0, p, size=(n, n))
    return T, La, (La + dL) % p


def commutation_table(T, La, Lb, p, n):
    """Brute force: entry [i, j] says V[i] * W[j] == W[j] * V[i], for V the
    nonzero vectors and W all of K^n, each in lex order."""
    W = _kernels.lex_digits(np.arange(p ** n), p, n)
    # [i, j]: lex index of W[i] * W[j]
    products = _kernels.space_products(_kernels.left_tables(T, Lb, W, p),
                                       W @ La % p, p)
    return (products == products.T)[1:]


def test_commute_rows_paths_agree():
    """Commutant keys against a brute-force commutation table over all of
    K^n, on seeded random operations with linear parts."""
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3, 4):
            rng = np.random.default_rng(10 * p + n)
            V = space_matrix(p, n)
            for central in (False, True):
                if p ** n > 1000 and not central:
                    continue  # 7**4 alone: its table has 5.8M pairs
                T, La, Lb = random_operation(rng, p, n, central)
                keys = _kernels.commute_rows(T, La, Lb, V, p)
                table = commutation_table(T, La, Lb, p, n)
                _, key_class = np.unique(keys, axis=0, return_inverse=True)
                _, row_class = np.unique(table, axis=0, return_inverse=True)
                # equal keys iff equal rows: the class maps are one-to-one
                pairs = set(zip(key_class.ravel(), row_class.ravel()))
                assert len(pairs) == len(set(key_class.ravel()))
                assert len(pairs) == len(set(row_class.ravel()))
                assert np.array_equal(~keys.any(axis=1), table.all(axis=1))


def test_commute_rows_chunks_give_identical_keys(monkeypatch):
    """Eliminating a few vectors at a time, with a ragged last chunk,
    changes no key and no discovered partition."""
    rng = np.random.default_rng(3)
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                          field=Field(7))
    cases = [random_operation(rng, p, n, central)
             for p, n, central in ((5, 3, True), (3, 4, False))]
    cases.append(to_dense_arrays(model.operation, 7))
    whole = [_kernels.commute_rows(T, La, Lb, space_matrix(p, T.shape[0]), p)
             for (T, La, Lb), p in zip(cases, (5, 3, 7))]
    report = discover_strata(model, 7).to_json(full=True)
    monkeypatch.setattr(_kernels, "COMMUTE_CHUNK", 7)
    for (T, La, Lb), p, want in zip(cases, (5, 3, 7), whole):
        got = _kernels.commute_rows(T, La, Lb, space_matrix(p, T.shape[0]), p)
        assert np.array_equal(got, want)
    assert discover_strata(model, 7).to_json(full=True) == report


# SHA-256 of discover_strata(...).to_json(full=True), frozen from the
# commutation-bitset implementation that the commutant keys replaced
GOLDEN_DISCOVERY = [
    ("nonlinear3", (2, 3, 1, 4, 1, 2), 5,
     "a9a5c34dfae295e0e488d2e5fcbd9ffd8787ced7981800ed12e01e9ae72e4dc1"),
    ("nonlinear3", (2, 3, 5, 1, 4, 6), 2,
     "7c992c6cfad19272275640d330e4bd87a3f0dcbb11775c4022de54eadef7a57c"),
    ("nonlinear3", (2, 3, 5, 1, 4, 6), 7,
     "4862eb3ff3b3b764baab3f1f23fa05f0151a5d5c183a13426449271de09e3b6e"),
    ("nonlinear3", (2, 3, 5, 1, 4, 6), 19,
     "c3ed2a885ab2074a81114d2cf8651295667b3deb7402d9ad95df4fa9a006b2e7"),
    ("parametric4", (2, 3, 5, 7, 11, 13), 5,
     "6357daa2e0714c1c22e8587c7f36bed5c46476079c1e73c313163e3c241a0cfc"),
    ("basic3", None, 3,
     "87cd9ed2f408c5753f4e69203c5cd211c3ea2cb42b12848b67c7cae4c7a2503f"),
]


@pytest.mark.parametrize("name,params,p,digest", GOLDEN_DISCOVERY,
                         ids=[f"{g[0]}-{g[2]}" for g in GOLDEN_DISCOVERY])
def test_discovery_matches_golden_digest(name, params, p, digest):
    model = builtin_model(name, params=params, field=Field(p))
    report = discover_strata(model, p).to_json(full=True)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# to_dense_arrays before it read the compiled operation, kept as the
# differential reference: three walks over the coefficient dicts, each
# coefficient reduced on its own.
def old_residue(c, p):
    v = c.value if isinstance(c, FieldElement) else c
    if isinstance(v, Fraction):
        if v.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {v} vanishes mod {p}")
        return v.numerator * pow(v.denominator, -1, p) % p
    return int(v) % p


def old_to_dense_arrays(op, p):
    n = op.n
    T = np.zeros((n, n, n), dtype=np.int64)
    for (i, j, k), c in op.bilinear.entries.items():
        T[i, j, k] = old_residue(c, p)
    La = np.zeros((n, n), dtype=np.int64)
    for (i, k), c in op.linear_a.items():
        La[i, k] = old_residue(c, p)
    Lb = np.zeros((n, n), dtype=np.int64)
    for (j, k), c in op.linear_b.items():
        Lb[j, k] = old_residue(c, p)
    return T, La, Lb


def fraction_operation(rng, n):
    """An affine operation over Q with Fraction coefficients whose
    denominators are products of 2, 3 and 5."""
    q = Field()

    def coeff():
        return q.element(Fraction(int(rng.integers(-50, 51)),
                                  int(rng.choice([1, 2, 3, 4, 5, 6, 9, 10]))))
    keys = lambda r: [key for key in itertools.product(range(n), repeat=r)
                      if rng.random() < 0.5]
    return AffineOperation(StructureTensor(n, {k: coeff() for k in keys(3)}),
                           {k: coeff() for k in keys(2)},
                           {k: coeff() for k in keys(2)}, zero=q.zero())


def assert_same_dense_arrays(op, p):
    new, old = to_dense_arrays(op, p), old_to_dense_arrays(op, p)
    for x, y in zip(new, old):
        assert x.dtype == np.int64 and x.shape == y.shape
        assert np.array_equal(x, y)


@pytest.mark.parametrize("p", [7, 11, 101, 1000000000039])
def test_dense_arrays_match_the_old_coefficient_walk(p):
    for name in BUILTIN_NAMES:
        params = None if name == "basic3" else (2, 3, 5, 1, 4, 6)
        for field in (Field(p), Field()):
            assert_same_dense_arrays(
                builtin_model(name, params, field).operation, p)
        # Q params with denominators prime to p, reduced mod p
        if params:
            q_params = [Fraction(x, 2 + x % 3) for x in params]
            assert_same_dense_arrays(
                builtin_model(name, q_params, Field()).operation, p)
    rng = np.random.default_rng(p)
    for n in (1, 2, 3, 4):
        assert_same_dense_arrays(fraction_operation(rng, n), p)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_dense_arrays_refuse_a_denominator_that_vanishes_mod_p(p):
    """An operation over Q with one coefficient 1/p (its others have
    denominators prime to p) has no arrays mod p, in the old walk and the
    new one; another prime reduces it."""
    q = Field()
    op = fraction_operation(np.random.default_rng(p), 3)
    op = AffineOperation(StructureTensor(3, {**op.bilinear.entries,
                                             (2, 1, 0): q.element(
                                                 Fraction(1, p))}),
                         op.linear_a, op.linear_b, zero=q.zero())
    with pytest.raises(ZeroDivisionError):
        old_to_dense_arrays(op, p)
    with pytest.raises(ZeroDivisionError):
        to_dense_arrays(op, p)
    assert_same_dense_arrays(op, 101)


def test_dense_arrays_need_a_compiled_operation():
    with pytest.raises(ValueError):
        to_dense_arrays(symbolic_model("parametric3").operation, 7)
