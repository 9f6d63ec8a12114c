"""Structure tensors, matrix formulations, builtin models, identities."""

import itertools
import random
from fractions import Fraction

import pytest

from stratalg import (
    AffineOperation,
    BracketTree,
    Field,
    FieldElement,
    MatrixFormulation,
    ModelSpec,
    Polynomial,
    StructureTensor,
    associativity_check,
    associator,
    builtin_model,
    commutator,
    evaluate_bracketing,
    format_assoc_report,
    left_chain,
    lps,
    make_params,
    matrix_to_tensor,
    model_from_json,
    model_to_json,
    multiply,
    symbolic_components,
    symbolic_model,
    vector,
)
from stratalg import algebra
from stratalg.algebra import MAX_DIMENSION, PARAM_LETTERS, chain_orderings, \
    multiply_values
from stratalg.axioms import _bound_operands, shared_direction_subs
from stratalg.poly import MAX_DEGREE, DegreeError

# The 3-dimensional base model, written out entry by entry.
BASIC3_ENTRIES = {
    (0, 0, 0): 1, (1, 1, 0): 1, (1, 2, 0): 1, (2, 1, 0): 1, (2, 2, 0): 1,
    (1, 0, 1): 1, (0, 1, 1): 1, (2, 1, 1): 1, (1, 2, 1): -1,
    (2, 0, 2): 1, (2, 1, 2): -1, (0, 2, 2): 1, (1, 2, 2): 1,
}


def rand_vec(field, rng, n):
    return tuple(field.sample(rng, 9) for _ in range(n))


def test_structure_tensor_validation():
    f = Field()
    one = f.one()
    with pytest.raises(ValueError):
        StructureTensor(3, {(0, 0, 3): one})
    with pytest.raises(ValueError):
        StructureTensor(MAX_DIMENSION + 1, {})
    t = StructureTensor(2, {(0, 0, 0): f.zero(), (1, 1, 1): one})
    assert t.entries == {(1, 1, 1): one}


def test_basic3_tensor_is_the_frozen_entry_set(q_field):
    model = builtin_model("basic3")
    got = {k: Fraction(str(v)) for k, v in model.operation.bilinear.entries.items()}
    assert got == {k: Fraction(v) for k, v in BASIC3_ENTRIES.items()}


def test_basic3_comes_from_its_three_basis_matrices(q_field):
    f = q_field
    one, zero = f.one(), f.zero()

    def grid(rows):
        return [[f.element(v) for v in row] for row in rows]

    mf = MatrixFormulation(
        3,
        [grid([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
         grid([[0, 1, 1], [1, 0, -1], [0, 0, 1]]),
         grid([[0, 1, 1], [0, 1, 0], [1, -1, 0]])],
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
    )
    assert matrix_to_tensor(mf) == builtin_model("basic3").operation.bilinear


def test_matrix_apply_agrees_with_tensor_multiply(q_field):
    rng = random.Random(7)
    f = q_field
    mf_model = builtin_model("parametric4", params=(2, 3, 5, 7, 11, 13))
    from stratalg.algebra import _basic3_matrices, _parametric4_matrices

    for mf, op in [
        (_basic3_matrices(f), builtin_model("basic3").operation),
        (_parametric4_matrices(f, mf_model.params), mf_model.operation),
    ]:
        for _ in range(12):
            a = rand_vec(f, rng, mf.n)
            b = rand_vec(f, rng, mf.n)
            assert mf.apply(a, b) == multiply(op, a, b)


def test_parametric3_entries_follow_the_parameter_template(f19):
    P = make_params(f19, (4, 9, 2, 13, 6, 10))
    model = builtin_model("parametric3", params=P, field=f19)
    A, B, C, D, E, F = (P[k] for k in PARAM_LETTERS)
    one = f19.one()
    expected = {
        (0, 0, 0): one, (1, 1, 0): A, (2, 2, 0): B, (2, 1, 0): C, (1, 2, 0): D,
        (1, 0, 1): one, (0, 1, 1): one, (2, 1, 1): E, (1, 2, 1): -E,
        (2, 0, 2): one, (0, 2, 2): one, (2, 1, 2): F, (1, 2, 2): -F,
    }
    assert model.operation.bilinear.entries == expected


def test_basic3_is_the_parametric_template_at_unit_values():
    base = builtin_model("basic3").operation.bilinear
    spec = builtin_model("parametric3", params=(1, 1, 1, 1, 1, -1))
    assert spec.operation.bilinear == base


def test_basic3_is_associative():
    mismatches = associativity_check(builtin_model("basic3").operation)
    assert mismatches == []
    assert format_assoc_report(mismatches) == "The operation is associative."


def test_parametric3_appendix_params_break_associativity(parametric3_appendix):
    mismatches = associativity_check(parametric3_appendix.operation)
    assert len(mismatches) == 16
    quads = [(m.i, m.j, m.k, m.l) for m in mismatches]
    assert quads == sorted(quads)
    assert quads[0] == (1, 1, 2, 0)
    report = format_assoc_report(mismatches)
    lines = report.splitlines()
    assert lines[0] == "The operation is not associative. 16 mismatches found:"
    assert lines[1] == "  (i,j,k,l)=(1,1,2,0): 0 != -145"
    assert all(line.startswith("  (i,j,k,l)=") for line in lines[1:])


def test_associativity_check_rejects_affine_operations(nonlinear19):
    with pytest.raises(ValueError):
        associativity_check(nonlinear19.operation)


def tensor_loop_mismatches(tensor):
    """Reference: the duck-typed n**5 loop over the coefficients, as the
    tensor criterion ran before it used the compiled product."""
    n = tensor.n
    get = tensor.entries.get
    out = []
    for i, j, k, l in itertools.product(range(n), repeat=4):
        lhs = rhs = None
        for r in range(n):
            x, y = get((i, j, r)), get((r, k, l))
            if x is not None and y is not None:
                lhs = x * y if lhs is None else lhs + x * y
            x, y = get((j, k, r)), get((i, r, l))
            if x is not None and y is not None:
                rhs = x * y if rhs is None else rhs + x * y
        if lhs is None and rhs is None:
            continue
        zero = algebra._zero_like(lhs if lhs is not None else rhs)
        lhs = zero if lhs is None else lhs
        rhs = zero if rhs is None else rhs
        if lhs != rhs:
            out.append(algebra.Mismatch(i, j, k, l, lhs, rhs))
    return out


TENSOR_SCALARS = {
    "Q": lambda rng: Field().element(Fraction(rng.randint(-4, 4),
                                              rng.randint(1, 4))),
    "F_5": lambda rng: Field(5).element(rng.randrange(5)),
    "F_101": lambda rng: Field(101).element(rng.randrange(101)),
    "poly": lambda rng: rng.randint(-2, 2) * Polynomial.var(
        rng.choice("AB")) + rng.randint(-2, 2),
}


@pytest.mark.parametrize("kind", TENSOR_SCALARS)
@pytest.mark.parametrize("density", (0.15, 1.0), ids=("sparse", "dense"))
def test_tensor_criterion_matches_the_coefficient_loop(kind, density):
    """Same mismatches, sides and order as the n**5 loop, on one seeded
    tensor for each n = 1..6, and none on the empty tensor."""
    for n in range(1, 7):
        rng = random.Random(f"{kind}:{density}:{n}")
        tensor = StructureTensor(n, {
            key: TENSOR_SCALARS[kind](rng)
            for key in itertools.product(range(n), repeat=3)
            if rng.random() < density})
        want = tensor_loop_mismatches(tensor)
        for got in (associativity_check(tensor),
                    associativity_check(AffineOperation(
                        tensor, zero=TENSOR_SCALARS[kind](rng) * 0))):
            assert got == want
            assert [(type(m.lhs), type(m.rhs), str(m.lhs), str(m.rhs))
                    for m in got] == \
                [(type(m.lhs), type(m.rhs), str(m.lhs), str(m.rhs))
                 for m in want]
    assert associativity_check(StructureTensor(3, {})) == []


def test_tensor_criterion_refuses_raw_scalars():
    """Like multiply, the criterion takes FieldElements of one field or
    Polynomials: a tensor of raw ints or Fractions raises TypeError."""
    for c in (1, Fraction(1, 2)):
        with pytest.raises(TypeError):
            associativity_check(StructureTensor(2, {(0, 0, 0): c}))


def test_identity_helpers_match_their_definitions(f19):
    rng = random.Random(3)
    op = builtin_model("parametric3", params=(2, 3, 5, 7, 11, 13),
                       field=f19).operation
    for _ in range(10):
        a, b, c = (rand_vec(f19, rng, 3) for _ in range(3))
        ab = multiply(op, a, b)
        assert commutator(op, a, b) == tuple(
            x - y for x, y in zip(ab, multiply(op, b, a)))
        assert associator(op, a, b, c) == tuple(
            x - y for x, y in zip(multiply(op, ab, c),
                                  multiply(op, a, multiply(op, b, c))))
        assert lps(op, a, b, c) == tuple(
            x - y for x, y in zip(multiply(op, ab, c),
                                  multiply(op, multiply(op, a, c), b)))
        assert left_chain(op, a, [b, c]) == multiply(op, ab, c)
        assert left_chain(op, a, []) == a


def test_bracket_trees(f19):
    rng = random.Random(5)
    op = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                       field=f19).operation
    leaves = [rand_vec(f19, rng, 3) for _ in range(4)]
    comb = BracketTree.left_comb(4)
    assert comb.leaf_indices() == [0, 1, 2, 3]
    assert evaluate_bracketing(op, comb, leaves) == left_chain(
        op, leaves[0], leaves[1:])
    right = BracketTree.node(BracketTree.leaf(0),
                             BracketTree.node(BracketTree.leaf(1),
                                              BracketTree.leaf(2)))
    got = evaluate_bracketing(op, right, leaves[:3])
    assert got == multiply(op, leaves[0], multiply(op, leaves[1], leaves[2]))
    with pytest.raises(ValueError):
        evaluate_bracketing(op, right, leaves)  # operand count mismatch
    assert BracketTree.leaf(2).leaf_indices() == [2]


def test_model_json_round_trip_bilinear(f19):
    model = builtin_model("parametric3", params=(4, 9, 2, 13, 6, 10),
                          field=f19)
    back = model_from_json(model_to_json(model))
    assert back.field == f19
    assert back.dimension == 3
    assert back.operation.bilinear == model.operation.bilinear
    assert back.operation.is_bilinear
    assert back.strata_rule == model.strata_rule
    assert back.params == model.params


def test_model_json_round_trip_affine(q_field):
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6))
    back = model_from_json(model_to_json(model))
    assert back.operation.bilinear == model.operation.bilinear
    assert back.operation.linear_a == model.operation.linear_a
    assert back.operation.linear_b == model.operation.linear_b
    rng = random.Random(11)
    for _ in range(5):
        a = rand_vec(q_field, rng, 3)
        b = rand_vec(q_field, rng, 3)
        assert multiply(back.operation, a, b) == multiply(model.operation, a, b)


def test_model_json_builtin_reference(f23):
    obj = {"builtin": "parametric4", "field": {"kind": "Fp", "p": 23},
           "params": {k: v for k, v in zip(PARAM_LETTERS, "2 3 5 7 11 13".split())}}
    model = model_from_json(obj)
    assert model.name == "parametric4"
    assert model.dimension == 4
    assert model.field == f23


def test_builtin_model_errors():
    with pytest.raises(ValueError):
        builtin_model("parametric3")  # params required
    with pytest.raises(ValueError):
        builtin_model("no-such-model", params=(1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        make_params(Field(), (1, 2, 3))


def test_make_params_accepts_dict_or_sequence(f19):
    seq = make_params(f19, (2, 3, 5, 7, 11, 13))
    d = make_params(f19, dict(zip(PARAM_LETTERS, (2, 3, 5, 7, 11, 13))))
    assert seq == d
    assert all(seq[k].field == f19 for k in PARAM_LETTERS)


def test_symbolic_components_specialize_to_numeric_products():
    sym = symbolic_model("parametric3")
    comps = symbolic_components(sym, "product")
    f = Field()
    params = (16, 8, 5, 3, 7, 11)
    numeric = builtin_model("parametric3", params=params)
    rng = random.Random(2)
    binding = {k: Fraction(v) for k, v in zip(PARAM_LETTERS, params)}
    for _ in range(4):
        a = rand_vec(f, rng, 3)
        b = rand_vec(f, rng, 3)
        binding.update({f"a{i}": Fraction(str(a[i])) for i in range(3)})
        binding.update({f"b{i}": Fraction(str(b[i])) for i in range(3)})
        want = multiply(numeric.operation, a, b)
        for k in range(3):
            assert comps[k].evaluate(binding) == Fraction(str(want[k]))


def test_symbolic_model_numeric_params_lock_the_letters():
    sym = symbolic_model("parametric3", params=(16, 8, 5, 3, 7, 11))
    comps = symbolic_components(sym, "commutator")
    names = set().union(*(c.variables() for c in comps))
    assert names <= {f"{p}{i}" for p in "ab" for i in range(3)}


def test_nonlinear3_decomposes_into_bilinear_plus_linear(f19):
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6), field=f19)
    stripped = AffineOperation(model.operation.bilinear, zero=f19.zero())
    rng = random.Random(13)
    for _ in range(8):
        a = rand_vec(f19, rng, 3)
        b = rand_vec(f19, rng, 3)
        full = multiply(model.operation, a, b)
        bil = multiply(stripped, a, b)
        assert full == tuple(u + x + y for u, x, y in zip(bil, a, b))


def test_vector_coerces_coordinates(f7):
    v = vector(f7, (1, Fraction(1, 2), 9))
    assert v == (f7.element(1), f7.element(4), f7.element(2))


def test_operation_rejects_wrong_arity(f7):
    op = builtin_model("basic3", field=f7).operation
    with pytest.raises(ValueError):
        multiply(op, vector(f7, (1, 2)), vector(f7, (1, 2, 3)))


def scalar_multiply(op, a, b):
    """Reference: the duck-typed per-entry loop, as multiply ran before
    operations over a field were compiled to plain coefficients."""
    if len(a) != op.n or len(b) != op.n:
        raise ValueError(f"operand length != {op.n}")
    out = [op.zero] * op.n
    for (i, j, k), c in op.bilinear.entries.items():
        out[k] = out[k] + c * a[i] * b[j]
    for (i, k), c in op.linear_a.items():
        out[k] = out[k] + c * a[i]
    for (j, k), c in op.linear_b.items():
        out[k] = out[k] + c * b[j]
    return tuple(out)


def random_scalar(field, rng):
    """An int or a Fraction whose denominator is a unit of the field."""
    dens = [d for d in range(1, 9) if field.p is None or d % field.p]
    num = rng.randint(-(1 << 70), 1 << 70) if rng.random() < 0.2 \
        else rng.randint(-60, 60)
    den = rng.choice(dens)
    return num if den == 1 else Fraction(num, den)


def random_operation(field, rng, n, affine):
    def coeff():
        return field.element(random_scalar(field, rng))

    entries = {(i, j, k): coeff() for i in range(n) for j in range(n)
               for k in range(n) if rng.random() < 0.6}
    entries[(0, 0, 0)] = field.one()  # every operand coordinate 0 is read
    linear_a = linear_b = None
    if affine:
        linear_a = {(i, k): coeff() for i in range(n) for k in range(n)
                    if rng.random() < 0.5}
        linear_b = {(j, k): coeff() for j in range(n) for k in range(n)
                    if rng.random() < 0.5}
    return AffineOperation(StructureTensor(n, entries), linear_a, linear_b,
                           zero=field.zero())


@pytest.mark.parametrize("p", [2, 3, 7, 2147483659, 2 ** 61 - 1, None],
                         ids=lambda p: f"F_{p}" if p else "Q")
def test_multiply_matches_the_scalar_loop(p):
    field = Field(p)
    rng = random.Random(f"multiply:{p}")
    for n in range(1, 5):
        for affine in (False, True):
            op = random_operation(field, rng, n, affine)
            for _ in range(6):
                raw_a = [random_scalar(field, rng) for _ in range(n)]
                raw_b = [random_scalar(field, rng) for _ in range(n)]
                a, b = vector(field, raw_a), vector(field, raw_b)
                want = scalar_multiply(op, a, b)
                assert multiply_values(op, [x.value for x in a],
                                       [y.value for y in b]) == \
                    [w.value for w in want]
                for x, y in ((a, b), (raw_a, raw_b), (a, raw_b),
                             (raw_a, tuple(b))):
                    got = multiply(op, x, y)
                    assert got == want
                    assert all(type(v) is FieldElement and v.field == field
                               and v.value == w.value
                               for v, w in zip(got, want))
                    assert got == scalar_multiply(op, x, y)
            foreign = vector(Field(5) if p != 5 else Field(7), [1] * n)
            with pytest.raises(ValueError):
                multiply(op, foreign, a)
            with pytest.raises(ValueError):
                multiply(op, a, foreign)
            with pytest.raises(ValueError):
                multiply(op, a + a[:1], b)
            with pytest.raises(ValueError):
                multiply(op, a, b[1:])


def outcome(mul, op, a, b):
    """A product's term dicts with each coefficient's type (1 and
    Fraction(1) differ), or the type and message of what it raised."""
    try:
        out = mul(op, a, b)
    except Exception as err:
        return type(err), str(err)
    assert type(out) is tuple and all(type(p) is Polynomial for p in out)
    return [{m: (c, type(c)) for m, c in p.terms.items()} for p in out]


@pytest.mark.parametrize("params", [None, (2, 3, 5, 7, 11, 13)],
                         ids=["symbols", "numeric"])
@pytest.mark.parametrize("name", algebra.BUILTIN_NAMES)
def test_symbolic_multiply_matches_the_scalar_loop(name, params):
    """The compiled Polynomial product against the per-entry loop on each
    twin: on free coordinates and on the bound operands of the SA1 and LPS
    proofs, with every product those proofs form from them."""
    op = symbolic_model(name, params).operation
    n = op.n
    for binds in ({}, shared_direction_subs(n, ("a", "b", "c")),
                  shared_direction_subs(n, ("b", "c"))):
        a, b, c = _bound_operands(n, binds)
        ab, ac, bc = (scalar_multiply(op, x, y)
                      for x, y in ((a, b), (a, c), (b, c)))
        for x, y in ((a, b), (b, a), (ab, c), (b, c), (a, bc), (a, c),
                     (ac, b)):
            assert outcome(multiply, op, x, y) == \
                outcome(scalar_multiply, op, x, y)


def random_component(rng, top=3):
    """0 (an int or the zero Polynomial), an int, a Fraction, or a
    Polynomial of up to three terms in x, y, z, exponents up to top."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((0, Polynomial()))
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        names = rng.sample("xyz", rng.randint(0, 3))
        mono = tuple(sorted((v, rng.randint(1, top)) for v in names))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Polynomial(terms)


def random_symbolic_operation(rng, n, top):
    """Polynomial coefficients in every part, zero ones among the linear
    terms (which keep them), degrees up to about 3 * top."""
    def coeff():
        return Polynomial() + random_component(rng, top)

    entries = {(i, j, k): coeff() for i in range(n) for j in range(n)
               for k in range(n) if rng.random() < 0.5}
    linear_a = {(i, k): coeff() for i in range(n) for k in range(n)
                if rng.random() < 0.5}
    linear_b = {(j, k): coeff() for j in range(n) for k in range(n)
                if rng.random() < 0.5}
    return AffineOperation(StructureTensor(n, entries), linear_a, linear_b,
                           zero=Polynomial())


@pytest.mark.parametrize("top", [1, 4], ids=["in-degree", "over-degree"])
def test_symbolic_multiply_matches_the_scalar_loop_on_random_operands(top):
    """Seeded operands with zero, int and Fraction components, on the
    symbolic twins and on random affine operations. With exponents up to 4
    many products pass MAX_DEGREE, and the same DegreeError (the first
    offending entry's degree) must come out."""
    rng = random.Random(f"symbolic-multiply:{top}")
    ops = [symbolic_model(name).operation for name in algebra.BUILTIN_NAMES]
    ops += [random_symbolic_operation(rng, n, top) for n in (1, 2, 3, 3, 4)]
    raised = 0
    for op in ops:
        for _ in range(40):
            a, b = ([random_component(rng, top) for _ in range(op.n)]
                    for _ in range(2))
            want = outcome(scalar_multiply, op, a, b)
            raised += type(want) is tuple
            assert outcome(multiply, op, a, b) == want
    assert raised == 0 if top == 1 else 0 < raised < 40 * len(ops)


def test_symbolic_multiply_raises_the_loops_degree_errors():
    """c*a_i past MAX_DEGREE raises even with b_j zero; a product that
    passes it only with b_j raises with the full degree; a linear term in
    b is guarded on c*b_j alone, even when c itself is past MAX_DEGREE."""
    x = Polynomial({(("x", MAX_DEGREE),): 1})
    y = Polynomial.var("y")
    op = symbolic_model("parametric3").operation  # A at (1, 1, 0)
    big = Polynomial({(("z", MAX_DEGREE + 1),): 1})
    lin = AffineOperation(StructureTensor(2, {}), linear_b={(1, 0): big},
                          zero=Polynomial())
    cases = [
        (op, (0, x, 0), (0, 0, 0), f"degree {MAX_DEGREE + 1} >"),
        (op, (x, 0, 0), (y, 0, 0), f"degree {MAX_DEGREE + 1} >"),
        (op, (y, y ** 5, 0), (x, y ** 7, 0), f"degree {MAX_DEGREE + 1} >"),
        (lin, (x, x), (0, y), f"degree {MAX_DEGREE + 2} >"),
    ]
    for op, a, b, message in cases:
        want = outcome(scalar_multiply, op, a, b)
        assert want[0] is DegreeError and message in want[1]
        assert outcome(multiply, op, a, b) == want
    # c past MAX_DEGREE times a zero b_j is no product to guard
    assert outcome(multiply, lin, (x, x), (y, 0)) == \
        outcome(scalar_multiply, lin, (x, x), (y, 0))


def test_multiply_refuses_scalars_it_has_no_product_for(f7):
    """Raw Fractions (or mixed scalars) compile to neither form; a
    FieldElement operand has no product with Polynomial coefficients."""
    op = AffineOperation(StructureTensor(2, {(0, 0, 0): Fraction(1, 2)}),
                         zero=Fraction(0))
    assert op.plain is None and op.poly is None
    with pytest.raises(TypeError, match="not Fraction scalars"):
        multiply(op, (1, 2), (3, 4))
    sop = symbolic_model("basic3").operation
    with pytest.raises(TypeError, match="'Polynomial' and 'FieldElement'"):
        multiply(sop, vector(f7, (1, 2, 3)), (1, 2, 3))


def test_chain_orderings_match_every_permutation(f19, monkeypatch):
    op = builtin_model("parametric3", params=(2, 3, 5, 1, 4, 6),
                       field=f19).operation

    def values(v):
        return tuple(x.value for x in v)

    rng = random.Random(5)
    for m in range(1, 6):
        mults = [rand_vec(f19, rng, 3) for _ in range(m)]
        if m >= 4:
            mults[-1] = mults[0]
        base = rand_vec(f19, rng, 3)
        distinct = []
        for o in itertools.permutations(mults):
            if o not in distinct:
                distinct.append(o)
        # the FieldElement left chain of each ordering, on plain values
        want = [(tuple(map(values, o)), values(left_chain(op, base, o)))
                for o in distinct]
        got = chain_orderings(op, values(base), list(map(values, mults)))
        assert got == want
        assert all(type(x) is int for _, v in got for x in v)
    calls = []
    monkeypatch.setattr(algebra, "multiply_values",
                        lambda *args: calls.append(1) or multiply_values(*args))
    chain_orderings(op, values(base),
                    [values(rand_vec(f19, rng, 3)) for _ in range(5)])
    assert len(calls) == 5 + 20 + 60 + 120 + 120


# The builders before the family builder, kept as the differential
# reference: one if-chain each for the numeric and the symbolic models, the
# symbolic basic3 being parametric3 at (1, 1, 1, 1, 1, -1).
def old_nonlinear3_entries(field, P):
    one = field.one()
    A, B, C, D, E, F = (P[k] for k in PARAM_LETTERS)
    return {
        (0, 0, 0): one, (1, 1, 0): A, (2, 2, 0): B, (2, 1, 0): C, (1, 2, 0): D,
        (1, 0, 1): one, (0, 1, 1): one, (2, 1, 1): E, (1, 2, 1): -E,
        (2, 0, 2): one, (0, 2, 2): one, (2, 1, 2): -F, (1, 2, 2): F,
    }


def old_builtin_model(name, params=None, field=None):
    from stratalg.algebra import (RATIO_RULE_3D, RATIO_RULE_4D,
                                  _basic3_matrices, _parametric3_entries,
                                  _parametric4_matrices)
    if field is None:
        field = Field()
    if name == "basic3":
        mf = _basic3_matrices(field)
        op = AffineOperation(matrix_to_tensor(mf), zero=field.zero())
        return ModelSpec("basic3", 3, field, op, strata_rule=RATIO_RULE_3D)
    P = make_params(field, params)
    if P is None:
        raise ValueError(f"model {name} requires params A..F")
    if name == "parametric3":
        op = AffineOperation(StructureTensor(3, _parametric3_entries(field, P)),
                             zero=field.zero())
        return ModelSpec(name, 3, field, op, strata_rule=RATIO_RULE_3D,
                         params=P)
    if name == "parametric4":
        mf = _parametric4_matrices(field, P)
        op = AffineOperation(matrix_to_tensor(mf), zero=field.zero())
        return ModelSpec(name, 4, field, op, strata_rule=RATIO_RULE_4D,
                         params=P)
    if name == "nonlinear3":
        one = field.one()
        eye = {(i, i): one for i in range(3)}
        op = AffineOperation(StructureTensor(3, old_nonlinear3_entries(field, P)),
                             linear_a=eye, linear_b=dict(eye),
                             zero=field.zero())
        return ModelSpec(name, 3, field, op, strata_rule=RATIO_RULE_3D,
                         params=P)
    raise ValueError(f"unknown builtin model {name!r}")


class OldPolyField:
    @staticmethod
    def one():
        return Polynomial.const(1)

    @staticmethod
    def zero():
        return Polynomial()


def old_symbolic_model(name, params=None):
    from stratalg.algebra import (RATIO_RULE_3D, RATIO_RULE_4D,
                                  _parametric3_entries, _parametric4_matrices)
    if params is None:
        params = {k: Polynomial.var(k) for k in PARAM_LETTERS}
    else:
        seq = ([params[k] for k in PARAM_LETTERS] if isinstance(params, dict)
               else list(params))
        params = {k: Polynomial.const(v) if not isinstance(v, Polynomial)
                  else v for k, v in zip(PARAM_LETTERS, seq)}
    one = Polynomial.const(1)
    zero = Polynomial()
    if name == "basic3":
        return old_symbolic_model("parametric3", [1, 1, 1, 1, 1, -1])
    if name == "parametric3":
        entries = _parametric3_entries(OldPolyField(), params)
        op = AffineOperation(StructureTensor(3, entries), zero=zero)
        return ModelSpec(name, 3, None, op, strata_rule=RATIO_RULE_3D,
                         params=params)
    if name == "parametric4":
        mf = _parametric4_matrices(OldPolyField(), params)
        op = AffineOperation(StructureTensor(4, matrix_to_tensor(mf).entries),
                             zero=zero)
        return ModelSpec(name, 4, None, op, strata_rule=RATIO_RULE_4D,
                         params=params)
    if name == "nonlinear3":
        entries = old_nonlinear3_entries(OldPolyField(), params)
        eye = {(i, i): one for i in range(3)}
        op = AffineOperation(StructureTensor(3, entries),
                             linear_a=eye, linear_b=dict(eye), zero=zero)
        return ModelSpec(name, 3, None, op, strata_rule=RATIO_RULE_3D,
                         params=params)
    raise ValueError(f"unknown builtin model {name!r}")


def seeded_params(seed):
    """Six scalars with small numerators and denominators, some not
    integral (they reduce mod p over a prime field)."""
    rng = random.Random(f"{seed}:builder-params")
    return tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 5)))
                 for _ in range(6))


@pytest.mark.parametrize("p", [None, 7, 1000000000039])
@pytest.mark.parametrize("name", algebra.BUILTIN_NAMES)
def test_family_builder_matches_the_old_numeric_builder(name, p):
    field = Field(p)
    for seed in range(4):
        params = None if name == "basic3" else seeded_params(f"{name}:{seed}")
        new = builtin_model(name, params, field)
        old = old_builtin_model(name, params, field)
        assert algebra._coefficients(new.operation) == \
            algebra._coefficients(old.operation)
        assert (new.name, new.dimension, new.field, new.strata_rule,
                new.params) == \
            (old.name, old.dimension, old.field, old.strata_rule, old.params)
        assert new.operation.plain == old.operation.plain


def symbolic_terms(op):
    return [{key: c.terms for key, c in part.items()}
            for part in algebra._coefficients(op)]


@pytest.mark.parametrize("name", algebra.BUILTIN_NAMES)
def test_family_builder_matches_the_old_symbolic_builder(name):
    for params in (None, seeded_params(name), (16, 8, 5, 3, 7, 11)):
        new = symbolic_model(name, params)
        old = old_symbolic_model(name, params)
        assert symbolic_terms(new.operation) == symbolic_terms(old.operation)
        assert new.dimension == old.dimension
        assert new.strata_rule == old.strata_rule
        assert new.field is None
        if name == "basic3":
            # the one intended change: basic3's own matrices, its own name,
            # and no params
            assert (new.name, new.params) == ("basic3", None)
            assert (old.name, old.params["F"]) == ("parametric3",
                                                    Polynomial.const(-1))
        else:
            assert (new.name, new.params) == (old.name, old.params)


class _Int(int):
    pass


@pytest.mark.parametrize("p", [None, 7, 1000000000039])
def test_plain_passes_only_exact_residues_through(p):
    """_plain hands an exact int in [0, p) over as it is and coerces every
    other scalar through field.element: equal values of equal types."""
    field = Field(p)
    op = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                       field=field).operation
    top = p or 10 ** 6
    scalars = [0, 1, top - 1, -1, -top, top, top + 3, 5 * top + 2, 3 * top,
               True, False, _Int(2), _Int(top + 1), Fraction(3, 2),
               Fraction(-4), field.element(6)]
    for v in itertools.product(scalars, repeat=3):
        got = algebra._plain(op, v)
        want = tuple(field.element(x).value for x in v)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want], v
