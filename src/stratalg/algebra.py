"""Bilinear and affine vector operations: tensors, matrix forms, bracketed
evaluation, and the associativity criterion.

Products run on one compiled term form (_compile): int rows over one field,
or term dicts over Polynomials for the symbolic proofs and identity suite.
The tensor criterion runs on that product too; matrix forms stay
duck-typed over any scalars.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .field import Field, FieldElement, _elements, format_scalar
from .poly import Polynomial, _clean, _guard, _mono_mul
from .rules import RATIO_RULE_3D, RATIO_RULE_4D

MAX_DIMENSION = 16

Mismatch = namedtuple("Mismatch", "i j k l lhs rhs")


def vector(field, coords):
    return tuple(field.element(c) for c in coords)


class StructureTensor:
    """Sparse alpha_{ijk}: (a*b)_k = sum over i,j of alpha_{ijk} a_i b_j."""

    def __init__(self, n, entries):
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension {n} exceeds cap {MAX_DIMENSION}")
        self.n = n
        self.entries = {}
        for (i, j, k), c in entries.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"index {(i, j, k)} out of range for n={n}")
            if c:
                self.entries[(i, j, k)] = c

    def __eq__(self, other):
        return (isinstance(other, StructureTensor)
                and self.n == other.n and self.entries == other.entries)

    def __repr__(self):
        return f"StructureTensor(n={self.n}, nnz={len(self.entries)})"


class MatrixFormulation:
    """a*b = M_a . b with M_a = sum_s lambda^(s)(a) E^(s)."""

    def __init__(self, n, matrices, functionals):
        self.n = n
        self.matrices = [tuple(tuple(row) for row in m) for m in matrices]
        self.functionals = [tuple(f) for f in functionals]
        for m in self.matrices:
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError("basis matrix is not n x n")
        for f in self.functionals:
            if len(f) != n:
                raise ValueError("functional row is not length n")
        if len(self.matrices) != len(self.functionals):
            raise ValueError("matrix/functional counts differ")

    def apply(self, a, b):
        """Evaluate M_a . b directly (used to cross-check the tensor)."""
        n = self.n
        out = []
        for k in range(n):
            acc = None
            for mat, lam in zip(self.matrices, self.functionals):
                coeff = None
                for i in range(n):
                    if lam[i]:
                        t = lam[i] * a[i]
                        coeff = t if coeff is None else coeff + t
                if coeff is None:
                    continue
                for j in range(n):
                    if mat[k][j]:
                        t = coeff * mat[k][j] * b[j]
                        acc = t if acc is None else acc + t
            out.append(acc)
        zero = _zero_like(a[0])
        return tuple(zero if x is None else x for x in out)


def _zero_like(x):
    return x - x


def matrix_to_tensor(mf):
    """alpha_{ijk} = sum_s lambda^(s)_i (E^(s))_{kj}."""
    entries = {}
    n = mf.n
    for s, (mat, lam) in enumerate(zip(mf.matrices, mf.functionals)):
        for i in range(n):
            if not lam[i]:
                continue
            for k in range(n):
                for j in range(n):
                    if not mat[k][j]:
                        continue
                    c = lam[i] * mat[k][j]
                    key = (i, j, k)
                    if key in entries:
                        entries[key] = entries[key] + c
                    else:
                        entries[key] = c
    return StructureTensor(n, entries)


class AffineOperation:
    """Bilinear tensor plus optional linear terms in each argument:
    (a*b)_k = sum alpha_{ijk} a_i b_j + sum lam_{ik} a_i + sum mu_{jk} b_j.
    """

    def __init__(self, bilinear, linear_a=None, linear_b=None, zero=None):
        self.bilinear = bilinear
        self.n = bilinear.n
        self.linear_a = dict(linear_a or {})
        self.linear_b = dict(linear_b or {})
        if zero is None:
            some = next(iter(bilinear.entries.values()), None)
            if some is None:
                raise ValueError("zero scalar required for an empty tensor")
            zero = _zero_like(some)
        self.zero = zero
        self.plain, self.poly = _compile(self)

    @property
    def is_bilinear(self):
        return not self.linear_a and not self.linear_b


PlainOperation = namedtuple("PlainOperation", "field den rows")


def _compile(op):
    """(plain, poly) of op's terms c a_i b_j, over operands extended by
    a_n = b_n = 1 (so linear terms are bilinear). Over one field plain's
    rows[k] lists (i, j, c), c an int over den; with Polynomial scalars poly
    lists (i, j, k, c's terms, c's degree) in entry order; else neither."""
    n = op.n
    terms = [(i, j, k, c) for (i, j, k), c in op.bilinear.entries.items()]
    terms += [(i, n, k, c) for (i, k), c in op.linear_a.items()]
    terms += [(n, j, k, c) for (j, k), c in op.linear_b.items()]
    scalars = [op.zero] + [c for *_, c in terms]
    if all(isinstance(c, Polynomial) for c in scalars):
        return None, [(i, j, k, c.terms, c.degree()) for i, j, k, c in terms
                      if c]
    if any(not isinstance(c, FieldElement) or c.field != op.zero.field
           for c in scalars):  # op.zero comes first
        return None, None
    den = math.lcm(*(c.value.denominator for *_, c in terms))
    rows = [[] for _ in range(n)]
    for i, j, k, c in terms:
        if c:
            rows[k].append((i, j, int(c.value * den)))
    return PlainOperation(op.zero.field, den, rows), None


def multiply_values(op, av, bv):
    """a*b on plain values for a compiled operation: residues mod p, or
    ints and Fractions over Q, scaled to integer numerators over the lcm of
    their denominators, summed in ints and divided once (as in Bareiss)."""
    field, den, rows = op.plain
    p = field.p
    da = db = 1
    if p is None:
        da = math.lcm(*(x.denominator for x in av))
        db = math.lcm(*(x.denominator for x in bv))
        av = [x.numerator * (da // x.denominator) for x in av]
        bv = [x.numerator * (db // x.denominator) for x in bv]
    av, bv = [*av, da], [*bv, db]
    out = []
    for row in rows:
        s = 0
        for i, j, c in row:
            s += c * av[i] * bv[j]
        out.append(s % p if p else Fraction(s, den * da * db))
    return out


def _as_operation(op):
    return op.operation if hasattr(op, "operation") else op


def _plain(op, v):
    """v as multiply_values' operands: residues in [0, p) or Fractions."""
    if op.plain is None:
        raise ValueError("plain values need an operation over one field")
    if len(v) != op.n:
        raise ValueError(f"operand length != {op.n}")
    f = op.plain.field
    p = f.p or 0  # an exact int already in [0, p) is its own residue
    return tuple([x if type(x) is int and 0 <= x < p
                  else x.value if type(x) is FieldElement and x.field is f
                  else f.element(x).value for x in v])


def multiply(op, a, b):
    """a*b on op's compiled terms. Over Polynomials (ints and Fractions in
    a and b lift) each component sums into one dict; c*a_i's degree, then
    c*a_i*b_j's, is guarded per term in entry order, as Polynomial's is."""
    if op.plain is not None:
        return _elements(op.plain.field, multiply_values(
            op, _plain(op, a), _plain(op, b)))
    if op.poly is None:
        raise TypeError("multiply needs FieldElements of one field or "
                        f"Polynomials, not {type(op.zero).__name__} scalars")
    if len(a) != op.n or len(b) != op.n:
        raise ValueError(f"operand length != {op.n}")
    av, bv = ([(p.terms, p.degree()) for p in [x if isinstance(x, Polynomial)
               else Polynomial() + x for x in v]] + [({(): 1}, 0)]
              for v in (a, b))
    out = [{} for _ in a]
    for i, j, k, tc, degree in op.poly:
        (ta, da), (tb, db) = av[i], bv[j]
        if ta and i < op.n:  # c*a_n = c is no product
            _guard(degree + da)
        if not (ta and tb):
            continue
        _guard(degree + da + db)
        acc = out[k]
        for m1, c1 in tc.items():
            for m2, c2 in ta.items():
                m12, c12 = _mono_mul(m1, m2), c1 * c2
                for m3, c3 in tb.items():
                    m = _mono_mul(m12, m3)
                    acc[m] = acc.get(m, 0) + c12 * c3
    return tuple(Polynomial._of(_clean(t)) for t in out)


def left_chain(op, b, multipliers):
    """(((b*a1)*a2)...)*am; empty multiplier list returns b."""
    acc = b
    for m in multipliers:
        acc = multiply(op, acc, m)
    return acc


# Longest chain whose orderings are enumerated: m multipliers have up to m!
# orderings (720 at 6), so each step up multiplies the work by about m.
MAX_CHAIN = 6

# Longest orbit walk (dynamics.orbit). Every step is kept (~0.5 KB each)
# until a value repeats, which over F_p can take p**n steps: 100,000 steps
# over a 40-bit prime took 3.1 s and 82 MB ru_maxrss on a 2-vCPU host.
MAX_STEPS = 10 ** 5

# Longest seeded secret chain (kex.seeded_session). A session's time and
# memory grow linearly with it: two chains of 10,000 took 1.0 s and 39 MB
# ru_maxrss at F_101 on a 2-vCPU host.
MAX_SECRET_LENGTH = 10 ** 4


def chain_orderings(op, base, mults):
    """[(ordering, left chain of base by it)] for each distinct ordering of
    the multiset mults, in the order itertools.permutations first yields it.
    Plain values of a compiled operation (multiply_values); each chain value
    is a tuple. Orderings share prefix products and skip values already
    tried at a level: 5 distinct multipliers take 325 products, not 600."""
    mults = tuple(mults)
    if not mults:
        return [((), base)]
    out, tried = [], []
    for idx, q in enumerate(mults):
        if q not in tried:
            tried.append(q)
            rest = mults[:idx] + mults[idx + 1:]
            v = tuple(multiply_values(op, base, q))
            out += [((q,) + o, w) for o, w in chain_orderings(op, v, rest)]
    return out


def commutator(op, a, b):
    u = multiply(op, a, b)
    v = multiply(op, b, a)
    return tuple(x - y for x, y in zip(u, v))


def associator(op, a, b, c):
    u = multiply(op, multiply(op, a, b), c)
    v = multiply(op, a, multiply(op, b, c))
    return tuple(x - y for x, y in zip(u, v))


def lps(op, a, b, c):
    """(a*b)*c - (a*c)*b: zero iff swapping the two right factors commutes."""
    u = multiply(op, multiply(op, a, b), c)
    w = multiply(op, multiply(op, a, c), b)
    return tuple(x - y for x, y in zip(u, w))


def is_zero_vector(v):
    return all(not x for x in v)


class BracketTree:
    """Binary bracketing over an operand list. Leaves, left to right, are
    exactly 0..m-1: trees reassociate, never reorder."""

    __slots__ = ("index", "left", "right")

    def __init__(self, index=None, left=None, right=None):
        self.index = index
        self.left = left
        self.right = right

    @staticmethod
    def leaf(index):
        return BracketTree(index=index)

    @staticmethod
    def node(left, right):
        return BracketTree(left=left, right=right)

    @property
    def is_leaf(self):
        return self.index is not None

    def leaf_indices(self):
        if self.is_leaf:
            return [self.index]
        return self.left.leaf_indices() + self.right.leaf_indices()

    @staticmethod
    def left_comb(m):
        """(((0*1)*2)...*m-1), the fully left-associated shape."""
        if m < 1:
            raise ValueError("left_comb needs at least one leaf")
        tree = BracketTree.leaf(0)
        for i in range(1, m):
            tree = BracketTree.node(tree, BracketTree.leaf(i))
        return tree

    def __repr__(self):
        if self.is_leaf:
            return str(self.index)
        return f"({self.left!r}*{self.right!r})"


def evaluate_bracketing(op, tree, leaves):
    order = tree.leaf_indices()
    if order != list(range(len(leaves))):
        raise ValueError(f"tree leaves {order} do not match operand count "
                         f"{len(leaves)} in order")
    vals = _subexpression_values(op, tree, leaves)
    return vals[-1] if vals else leaves[0]


def _subexpression_values(op, tree, leaves):
    """Value of every inner node of tree, children before parents, so the
    root's value comes last."""
    vals = []

    def walk(t):
        if t.is_leaf:
            return leaves[t.index]
        v = multiply(op, walk(t.left), walk(t.right))
        vals.append(v)
        return v

    walk(tree)
    return vals


def associativity_check(op_or_tensor):
    """Tensor criterion: associative iff for all (i,j,k,l)
    sum_r alpha_{ijr} alpha_{rkl} = sum_s alpha_{jks} alpha_{isl}.
    Returns the mismatch list in lexicographic (i,j,k,l) order."""
    return list(iter_mismatches(op_or_tensor))


def iter_mismatches(op_or_tensor):
    """associativity_check's mismatches, lazily: callers that need only the
    first one, or whether one exists, stop the scan there. The n**2 basis
    products e_i e_j are formed once; each (i, j, k) then compares
    (e_i e_j) e_k with e_i (e_j e_k) entry by entry on the compiled product:
    plain values over one field (each side a FieldElement when yielded), or
    multiply over Polynomials. A bare tensor is compiled as an operation."""
    op = op_or_tensor
    if isinstance(op, StructureTensor):
        if not op.entries:  # no scalar to compile, and nothing to compare
            return
        op = AffineOperation(op)
    elif not op.is_bilinear:
        raise ValueError(
            "the tensor criterion applies to bilinear operations only; "
            "use randomized associativity checks for affine operations")
    if op.plain is not None:
        mul = functools.partial(multiply_values, op)
        side = functools.partial(FieldElement, op.plain.field)
    else:  # Polynomials already, or multiply raises its TypeError
        mul, side = functools.partial(multiply, op), lambda x: x
    n = op.n
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    prods = [[mul(x, y) for y in basis] for x in basis]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul(prods[i][j], basis[k])
                rhs = mul(basis[i], prods[j][k])
                for l in range(n):
                    if lhs[l] != rhs[l]:
                        yield Mismatch(i, j, k, l, side(lhs[l]), side(rhs[l]))


def format_assoc_report(mismatches):
    if not mismatches:
        return "The operation is associative."
    lines = [f"The operation is not associative. "
             f"{len(mismatches)} mismatches found:"]
    for m in mismatches:
        lines.append(f"  (i,j,k,l)=({m.i},{m.j},{m.k},{m.l}): "
                     f"{format_scalar(m.lhs)} != {format_scalar(m.rhs)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# built-in models

BUILTIN_NAMES = ("basic3", "parametric3", "parametric4", "nonlinear3")

PARAM_LETTERS = ("A", "B", "C", "D", "E", "F")


class ModelSpec:
    def __init__(self, name, dimension, field, operation, strata_rule=None,
                 params=None):
        if operation.n != dimension:
            raise ValueError("operation dimension != model dimension")
        self.name = name
        self.dimension = dimension
        self.field = field
        self.operation = operation
        self.strata_rule = strata_rule
        self.params = params

    def __repr__(self):
        return f"ModelSpec({self.name}, n={self.dimension}, {self.field})"


def _basic3_matrices(field):
    one = field.one()
    zero = field.zero()
    neg = -one

    def grid(rows):
        return [[{0: zero, 1: one, -1: neg}[v] for v in row] for row in rows]

    e0 = grid([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    e1 = grid([[0, 1, 1], [1, 0, -1], [0, 0, 1]])
    e2 = grid([[0, 1, 1], [0, 1, 0], [1, -1, 0]])
    lams = [[one if i == s else zero for i in range(3)] for s in range(3)]
    return MatrixFormulation(3, [e0, e1, e2], lams)


def _parametric3_entries(field, P):
    one = field.one()
    A, B, C, D, E, F = (P[k] for k in PARAM_LETTERS)
    return {
        (0, 0, 0): one, (1, 1, 0): A, (2, 2, 0): B, (2, 1, 0): C, (1, 2, 0): D,
        (1, 0, 1): one, (0, 1, 1): one, (2, 1, 1): E, (1, 2, 1): -E,
        (2, 0, 2): one, (0, 2, 2): one, (2, 1, 2): F, (1, 2, 2): -F,
    }


def _parametric4_matrices(field, P):
    one = field.one()
    zero = field.zero()
    A, B, C, D, E, F = (P[k] for k in PARAM_LETTERS)
    e0 = [[one, zero, zero, zero],
          [zero, one, zero, zero],
          [zero, zero, one, zero],
          [zero, zero, zero, one]]
    e1 = [[zero, A, C, zero],
          [one, zero, zero, D],
          [zero, zero, zero, A],
          [zero, zero, one, zero]]
    e2 = [[zero, E, B, zero],
          [zero, zero, zero, -B],
          [one, zero, zero, F],
          [zero, -one, zero, zero]]
    e3 = [[zero, zero, zero, -(A * B)],
          [zero, F, B, zero],
          [zero, -A, D, zero],
          [one, zero, zero, D + F]]
    lams = [[one if i == s else zero for i in range(4)] for s in range(4)]
    return MatrixFormulation(4, [e0, e1, e2, e3], lams)


def make_params(field, values):
    """Accepts a mapping with keys A..F or a sequence of six scalars."""
    if values is None:
        return None
    if isinstance(values, dict):
        seq = [values[k] for k in PARAM_LETTERS]
    else:
        seq = list(values)
    if len(seq) != 6:
        raise ValueError("expected six parameters A..F")
    return {k: field.element(v) for k, v in zip(PARAM_LETTERS, seq)}


class _PolyRing:
    """The scalars of the symbolic models: the Field methods that
    make_params and the entry and matrix builders call."""

    @staticmethod
    def one():
        return Polynomial.const(1)

    @staticmethod
    def zero():
        return Polynomial()

    @staticmethod
    def element(v):
        return v if isinstance(v, Polynomial) else Polynomial.const(v)


def _family(name, ring, params, field):
    """Built-in family name with scalars from ring (a Field, or _PolyRing
    for the symbolic twins) at params (make_params over ring; basic3 takes
    none and ignores any given), as a ModelSpec over field."""
    linear = {}
    P = None if name == "basic3" else make_params(ring, params)
    if name == "basic3":
        tensor = matrix_to_tensor(_basic3_matrices(ring))
    elif P is None:
        raise ValueError(f"model {name} requires params A..F")
    elif name == "parametric3":
        tensor = StructureTensor(3, _parametric3_entries(ring, P))
    elif name == "parametric4":
        tensor = matrix_to_tensor(_parametric4_matrices(ring, P))
    elif name == "nonlinear3":
        # parametric3's bilinear part with the F terms' signs flipped
        flip = {**P, "F": -P["F"]}
        tensor = StructureTensor(3, _parametric3_entries(ring, flip))
        eye = {(i, i): ring.one() for i in range(3)}
        linear = {"linear_a": eye, "linear_b": dict(eye)}
    else:
        raise ValueError(f"unknown builtin model {name!r}")
    op = AffineOperation(tensor, zero=ring.zero(), **linear)
    rule = RATIO_RULE_4D if tensor.n == 4 else RATIO_RULE_3D
    return ModelSpec(name, tensor.n, field, op, strata_rule=rule, params=P)


def builtin_model(name, params=None, field=None):
    if field is None:
        field = Field()
    return _family(name, field, params, field)


def symbolic_model(name, params=None):
    """Builtin with Polynomial entries; params default to the symbols A..F."""
    if params is None:
        params = {k: Polynomial.var(k) for k in PARAM_LETTERS}
    return _family(name, _PolyRing, params, None)


def coordinate_vars(prefix, n):
    return tuple(Polynomial.var(f"{prefix}{i}") for i in range(n))


def symbolic_components(model, what="product"):
    """Componentwise polynomials of product/commutator/associator/lps in the
    coordinates a_i, b_j (and c_k for the ternary forms)."""
    op = model.operation
    a = coordinate_vars("a", op.n)
    b = coordinate_vars("b", op.n)
    if what == "product":
        return multiply(op, a, b)
    if what == "commutator":
        return commutator(op, a, b)
    c = coordinate_vars("c", op.n)
    if what == "associator":
        return associator(op, a, b, c)
    if what == "lps":
        return lps(op, a, b, c)
    raise ValueError(f"unknown component kind {what!r}")


# ---------------------------------------------------------------------------
# JSON model interchange

def model_to_json(model):
    op = model.operation
    obj = {
        "name": model.name,
        "dimension": model.dimension,
        "field": model.field.to_json(),
        "operation": {
            "bilinear": [
                {"i": i, "j": j, "k": k, "c": format_scalar(c)}
                for (i, j, k), c in sorted(op.bilinear.entries.items())
            ],
            "linear_a": [
                {"i": i, "k": k, "c": format_scalar(c)}
                for (i, k), c in sorted(op.linear_a.items())
            ],
            "linear_b": [
                {"j": j, "k": k, "c": format_scalar(c)}
                for (j, k), c in sorted(op.linear_b.items())
            ],
        },
    }
    if model.params:
        obj["params"] = {k: format_scalar(v)
                         for k, v in sorted(model.params.items())}
    if model.strata_rule:
        obj["strata_rule"] = {"kind": model.strata_rule["kind"],
                              "coords": list(model.strata_rule["coords"])}
    return obj


_RULE_ARITY = {"ratio": 2, "ratio-pair": 3}


def _bounded_int(x, lo, hi, what):
    """x if it is an int (not a bool) in [lo, hi); model files are JSON,
    where 3.7 would silently become 3 and -1 would index from the end."""
    if type(x) is not int:
        raise TypeError(f"{what} {x!r} is not an int")
    if not lo <= x < hi:
        raise ValueError(f"{what} {x} is outside [{lo}, {hi})")
    return x


def model_from_json(obj, field=None):
    builtin = "builtin" in obj
    f = field or Field.from_json(obj.get("field", {"kind": "Q"}) if builtin
                                 else obj["field"])

    def scalar(c):
        # a JSON float would be rounded or truncated before it is read, and
        # a bool would read as 0 or 1
        if type(c) not in (str, int):
            raise TypeError(f"coefficient {c!r} is not a string or an int")
        return f.from_string(str(c))

    params = obj.get("params")
    if builtin:
        if params is not None:
            params = {k: scalar(v) for k, v in params.items()}
        return builtin_model(obj["builtin"], params, f)
    n = _bounded_int(obj["dimension"], 1, MAX_DIMENSION + 1, "dimension")

    def key(e, names):
        return tuple(_bounded_int(e[x], 0, n, f"index {x}") for x in names)

    opj = obj["operation"]
    entries = {key(e, "ijk"): scalar(e["c"]) for e in opj.get("bilinear", [])}
    linear_a = {key(e, "ik"): scalar(e["c"]) for e in opj.get("linear_a", [])}
    linear_b = {key(e, "jk"): scalar(e["c"]) for e in opj.get("linear_b", [])}
    op = AffineOperation(StructureTensor(n, entries), linear_a, linear_b,
                         zero=f.zero())
    rule = obj.get("strata_rule")
    if rule:
        coords = tuple(_bounded_int(c, 0, n, "strata_rule coord")
                       for c in rule["coords"])
        if len(set(coords)) != len(coords) or \
                len(coords) != _RULE_ARITY.get(rule["kind"]):
            raise ValueError(f"strata_rule {rule!r} is not a ratio rule on "
                             "2 distinct coords or a ratio-pair rule on 3")
        rule = {"kind": rule["kind"], "coords": coords}
    if params:
        params = {k: scalar(v) for k, v in params.items()}
    name = obj.get("name", "custom")
    # the axiom checks and the identity suite apply a built-in's symbolic
    # proofs by name, and those bind the built-in's rule coordinates, so a
    # file may take that name only for its operation and rule
    if name in BUILTIN_NAMES:
        ref = builtin_model(name, params, f)
        if _coefficients(op) != _coefficients(ref.operation):
            raise ValueError(f"the operation is not built-in {name}'s over "
                             f"{f}" + (" at these params" if params else ""))
        if rule and rule != ref.strata_rule:
            raise ValueError(f"the strata rule is not built-in {name}'s")
    return ModelSpec(name, n, f, op, strata_rule=rule, params=params)


def _coefficients(op):
    """The nonzero coefficients of the bilinear and both linear parts."""
    return [{key: c for key, c in part.items() if c}
            for part in (op.bilinear.entries, op.linear_a, op.linear_b)]
