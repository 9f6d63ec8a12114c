"""Left-associated walks through the strata: fixed-multiplier orbits with
exact cycle detection and multi-multiplier chain paths, on plain values
(residues or Fractions) through multiply_values. Numpy-free, so `orbit
--start` and kex sessions load no numpy; dynamics re-exports the names."""

import itertools
import json
from functools import cached_property

from .algebra import MAX_STEPS, _as_operation, _plain, is_zero_vector, \
    multiply_values
from .field import _elements, _vec_json

ZERO_LABEL = "zero"
UNLABELED = "unlabeled"


def _labeler(partition):
    """Vector -> stratum label. Accepts a StratumPartition or any
    callable; the zero vector is always labeled ZERO_LABEL."""
    fn = getattr(partition, "label_of", partition)

    def label(v):
        if is_zero_vector(v):
            return ZERO_LABEL
        got = fn(v)
        return UNLABELED if got is None else str(got)

    return label


def _require_nonzero(v, what):
    if is_zero_vector(v):
        raise ValueError(f"{what} must be nonzero")


def _walk(op, v, multipliers, label, seen=None):
    """The left chain v, v*m_0, (v*m_0)*m_1, ... of plain values and their
    labels, cut after the first zero product or, when seen maps values to
    steps, after the first repeated value. Returns (values, labels,
    cycle_info, truncated)."""
    values, labels = [v], [label(v)]
    for k, q in enumerate(multipliers, 1):
        v = tuple(multiply_values(op, v, q))
        values.append(v)
        labels.append(label(v))  # ZERO_LABEL for the zero vector
        if not any(v):
            return values, labels, None, True
        if seen is not None:
            if v in seen:
                return values, labels, (seen[v], k - seen[v]), False
            seen[v] = k
    return values, labels, None, False


class Trajectory:
    """A left-associated chain with per-step stratum labels: steps[0] is
    the start, steps[k+1] is steps[k] * multipliers[k]. cycle_info =
    (entry, period) when the walk revisits an exact vector value; truncated
    is set when a zero product cut the chain short. values and applied hold
    plain values; start, multipliers, steps and final are FieldElements."""

    def __init__(self, field, values, labels, applied, cycle_info=None,
                 truncated=False):
        self.field = field
        self.values = values
        self.labels = labels
        self.applied = applied
        self.cycle_info = cycle_info
        self.truncated = truncated

    @property
    def start(self):
        return _elements(self.field, self.values[0])

    @cached_property
    def multipliers(self):
        return [_elements(self.field, q) for q in self.applied]

    @cached_property
    def steps(self):
        return [(_elements(self.field, v), label)
                for v, label in zip(self.values, self.labels)]

    @property
    def final(self):
        return _elements(self.field, self.values[-1])

    def __len__(self):
        return len(self.values)

    def to_json(self):
        return {
            "start": _vec_json(self.values[0]),
            "multipliers": [_vec_json(q) for q in self.applied],
            "steps": [{"step": k, "value": _vec_json(v), "stratum": label}
                      for k, (v, label) in enumerate(zip(self.values,
                                                         self.labels))],
            "cycle": list(self.cycle_info) if self.cycle_info else None,
            "truncated": self.truncated,
        }

    def to_json_lines(self):
        """One JSON object per line: a header, then one line per step."""
        header = dict(self.to_json(), type="trajectory")
        steps = header.pop("steps")
        dump = lambda o: json.dumps(o, sort_keys=True, separators=(",", ":"))
        return "\n".join(map(dump, [header, *steps]))

    def __repr__(self):
        extra = " truncated" if self.truncated else ""
        if self.cycle_info:
            extra = " cycle(entry={}, period={})".format(*self.cycle_info)
        return f"Trajectory({' -> '.join(self.labels)}{extra})"


def orbit(op, start, q, steps, partition):
    """Walk start, start*q, (start*q)*q, ... for at most `steps`
    multiplications, labeling each value with partition (a StratumPartition
    or a callable on plain values). Stops early at the first exact repeat
    of a value (cycle_info records entry index and period; the repeat is
    kept as the last step) or at a zero product (truncated flag)."""
    if steps < 0:
        raise ValueError("orbit steps must be at least 0")
    if steps > MAX_STEPS:
        raise ValueError(f"orbit steps must be at most {MAX_STEPS}")
    op = _as_operation(op)
    start, q = _plain(op, start), _plain(op, q)
    _require_nonzero(start, "orbit start")
    _require_nonzero(q, "orbit multiplier")
    values, labels, cycle, cut = _walk(op, start, itertools.repeat(q, steps),
                                       _labeler(partition), {start: 0})
    return Trajectory(op.plain.field, values, labels,
                      [q] * (len(values) - 1), cycle, cut)


def chain_path(op, start, multipliers, partition):
    """Label sequence of the left-associated chain
    ((start * m_0) * m_1) * ... . A zero product truncates the walk
    and leaves the remaining multipliers unapplied."""
    op = _as_operation(op)
    start = _plain(op, start)
    multipliers = [_plain(op, q) for q in multipliers]
    _require_nonzero(start, "chain start")
    for q in multipliers:
        _require_nonzero(q, "chain multiplier")
    values, labels, _, cut = _walk(op, start, multipliers,
                                   _labeler(partition))
    return Trajectory(op.plain.field, values, labels,
                      multipliers[:len(values) - 1], truncated=cut)
