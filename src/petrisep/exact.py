"""Built-in exact backend: decides Formula objects over the integers.

SmtSession uses this when no external SMT solver is configured and no
native z3 is on PATH, so synthesis runs with nothing but Python. Formulas
are linear atoms over k under conjunction and disjunction, so the only
integer unknowns are the k(i) themselves. It answers with the integer model
of least sum |k(i)|, with None only when every branch of the search has
been refuted exactly, and raises SolverUnknownError when the search had to
give up somewhere.

- The search reads formula.py's Atom, Conj and Disj, each atom a.x >= b
  made primitive (a divided by its gcd, b rounded up to match), and tests
  them at a rational point with formula.evaluate.
- Atoms go into a bounded simplex in the style of Dutertre & de Moura
  ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006), kept
  fraction-free: each row is an integer vector over the nonbasic unknowns
  with a positive denominator, and nonbasic unknowns sit at integer values,
  so every step is Python int arithmetic and needs no rounding.
- The search branches only on a disjunction that the current simplex point
  violates, then on an unknown whose value is fractional (branch and bound).
  The branches of a disjunction are made disjoint (the i-th one also gets
  the negations of the ones before it), so no region is searched twice.
- A rational point that satisfies every formula is first scaled to an
  integer one and re-checked exactly. When every atom is homogeneous, as in
  the unbounded separator queries, that ends the search without branch and
  bound.
- Before branching on a fractional point, the pinned forms (lower bound
  equal to upper bound) are tested for an integer solution by column
  Hermite reduction, which refutes parity conflicts such as x = 2 y = 2 z + 1
  that branch and bound alone would chase forever in an unbounded region.
- Minimization adds a(i) >= |k(i)| and caps sum a(i) at one below the best
  model so far, so once a model exists the rest of the search runs inside
  a finite L1 ball and ends with the least one.
"""

from __future__ import annotations

import math
import time
from operator import mul
from typing import Optional, Sequence

from .formula import Atom, Conj, Disj, Formula, evaluate
from .net import IntVector
from .solver import SolverTimeoutError, SolverUnknownError

# Nested integer branches on one search path. Deeper paths are abandoned,
# which turns a would-be unsat answer into SolverUnknownError; only a search
# in an unbounded region can get near this.
MAX_BRANCH_DEPTH = 200


TRUE = Conj(())
FALSE = Disj(())


def _convert(f: Formula) -> Formula:
    """f with nested connectives of one kind spliced and each atom primitive
    (rhs rounded up), or TRUE or FALSE when its coefficients are all zero."""
    if isinstance(f, Atom):
        g = math.gcd(*f.coeffs)
        if g == 0:
            return TRUE if f.rhs <= 0 else FALSE
        return f if g == 1 else Atom(tuple(c // g for c in f.coeffs), -(-f.rhs // g))
    if isinstance(f, Conj):
        return _join(Conj, [_convert(p) for p in f.parts])
    if isinstance(f, Disj):
        return _join(Disj, [_convert(p) for p in f.parts])
    raise TypeError(f"not a formula: {f!r}")


def _negate(f: Formula) -> Formula:
    """The negation of a formula that _convert returned, in the same form."""
    if type(f) is Atom:
        return Atom(tuple(-c for c in f.coeffs), 1 - f.rhs)
    return _join(Conj if type(f) is Disj else Disj, [_negate(p) for p in f.parts])


def _join(kind, parts):
    """parts under the connective kind (Conj or Disj), flattened: a nested
    kind node is spliced in, FALSE under Conj (TRUE under Disj) is the whole
    answer, and no parts at all give TRUE (FALSE)."""
    unit, zero = (TRUE, FALSE) if kind is Conj else (FALSE, TRUE)
    flat = []
    for p in parts:
        if p is zero:
            return zero
        flat.extend(p.parts if type(p) is kind else (p,))
    if len(flat) < 2:
        return flat[0] if flat else unit
    return kind(tuple(flat))


def _reduce(den: int, coeffs: list) -> tuple[int, list]:
    g = math.gcd(den, *coeffs)
    if g > 1:
        return den // g, [c // g for c in coeffs]
    return den, coeffs


class _Simplex:
    """Bounded simplex over integer rows; unknowns are 0..n-1 plus slacks.

    Column j holds the nonbasic unknown nonbasic[j] at the integer value
    value[j]. A basic unknown b is den[b] * x_b = coeffs[b] . value. Bounds
    are integers; lowering them back on backtracking keeps every nonbasic
    value inside its bounds, so the basis never has to be restored. A basic
    slack without bounds constrains nothing, so a pivot drops its row
    (coeffs None) instead of updating it, and the row is rebuilt from the
    slack's terms when a bound next arrives.
    """

    def __init__(self, n: int, tick):
        self.tick = tick
        self.lo: list = [None] * n
        self.hi: list = [None] * n
        self.col = list(range(n))  # column of a nonbasic unknown, else -1
        self.nonbasic = list(range(n))
        self.value = [0] * n
        self.den: list = [None] * n
        self.coeffs: list = [None] * n
        self.terms: list = [None] * n  # a slack's defining form
        self.slacks: dict = {}
        self.sides: dict = {}  # an atom's coefficients: (unknown, sign of its form)
        self.trail: list = []

    def unknown(self, terms: tuple) -> int:
        """The unknown equal to terms . x (a fresh basic slack if needed)."""
        if len(terms) == 1:
            return terms[0][0]
        s = self.slacks.get(terms)
        if s is None:
            s = self.slacks[terms] = len(self.lo)
            self.lo.append(None)
            self.hi.append(None)
            self.col.append(-1)
            self.den.append(None)
            self.coeffs.append(None)
            self.terms.append(terms)
        return s

    def _attach(self, v: int) -> None:
        """Give a basic slack whose row was dropped its row in the current basis."""
        if self.col[v] >= 0 or self.coeffs[v] is not None:
            return
        den, acc = 1, [0] * len(self.nonbasic)
        for u, c in self.terms[v]:
            j = self.col[u]
            if j >= 0:
                acc[j] += c * den
                continue
            d = self.den[u]
            lcm = den * d // math.gcd(den, d)
            f_acc, f_row = lcm // den, c * (lcm // d)
            acc = [a * f_acc + f_row * r for a, r in zip(acc, self.coeffs[u])]
            den = lcm
        self.den[v], self.coeffs[v] = _reduce(den, acc)

    def assert_atom(self, atom: Atom) -> bool:
        """Bound the unknown of atom's form, its first term made positive."""
        side = self.sides.get(atom.coeffs)
        if side is None:
            terms = tuple((v, c) for v, c in enumerate(atom.coeffs) if c)
            sign = 1 if terms[0][1] > 0 else -1
            form = tuple((v, sign * c) for v, c in terms)
            side = self.sides[atom.coeffs] = (self.unknown(form), sign)
        v, sign = side
        return self.assert_lower(v, atom.rhs) if sign > 0 else self.assert_upper(v, -atom.rhs)

    def assert_lower(self, v: int, b: int) -> bool:
        lo, hi = self.lo[v], self.hi[v]
        if lo is not None and lo >= b:
            return True
        if hi is not None and b > hi:
            return False
        self._attach(v)
        self.trail.append((v, lo, hi))
        self.lo[v] = b
        j = self.col[v]
        if j >= 0 and self.value[j] < b:
            self.value[j] = b
        return True

    def assert_upper(self, v: int, b: int) -> bool:
        lo, hi = self.lo[v], self.hi[v]
        if hi is not None and hi <= b:
            return True
        if lo is not None and b < lo:
            return False
        self._attach(v)
        self.trail.append((v, lo, hi))
        self.hi[v] = b
        j = self.col[v]
        if j >= 0 and self.value[j] > b:
            self.value[j] = b
        return True

    def cap(self, v: int, b: int) -> None:
        """Tighten an upper bound for good: backtracking never restores it."""
        self._attach(v)
        self.hi[v] = b
        j = self.col[v]
        if j >= 0 and self.value[j] > b:
            self.value[j] = b

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            v, lo, hi = trail.pop()
            self.lo[v] = lo
            self.hi[v] = hi

    def check(self) -> bool:
        """Move to a point within all bounds; False proves there is none."""
        lo_, hi_, den_, coeffs_ = self.lo, self.hi, self.den, self.coeffs
        while True:
            self.tick()
            value = self.value
            for b, row in enumerate(coeffs_):
                if row is None:
                    continue
                lo, hi = lo_[b], hi_[b]
                if lo is None and hi is None:
                    continue
                num = sum(map(mul, row, value))
                d = den_[b]
                if lo is not None and num < lo * d:
                    up, target = True, lo
                    break
                if hi is not None and num > hi * d:
                    up, target = False, hi
                    break
            else:
                return True
            # Bland's rule: the smallest unknown that can move b toward its bound.
            entering = None
            for j, c in enumerate(row):
                if c == 0:
                    continue
                nb = self.nonbasic[j]
                if (c > 0) == up:  # column j has to increase
                    bound = hi_[nb]
                    if bound is not None and value[j] >= bound:
                        continue
                else:
                    bound = lo_[nb]
                    if bound is not None and value[j] <= bound:
                        continue
                if entering is None or nb < self.nonbasic[entering]:
                    entering = j
            if entering is None:
                return False
            self._pivot(b, entering)
            self.value[entering] = target

    def _pivot(self, b: int, j: int) -> None:
        dp, cp = self.den[b], self.coeffs[b]
        cpe = cp[j]
        e = self.nonbasic[j]
        sign = 1 if cpe > 0 else -1
        # cpe x_e = dp x_b - sum_{k != j} cp[k] x_k
        row_e = [-sign * c for c in cp]
        row_e[j] = sign * dp
        den_e, row_e = _reduce(sign * cpe, row_e)
        lo, hi = self.lo, self.hi
        for r, cs in enumerate(self.coeffs):
            if cs is None or r == b:
                continue
            cre = cs[j]
            if cre == 0:
                continue
            if lo[r] is None and hi[r] is None and self.terms[r] is not None:
                self.coeffs[r] = None
                continue
            # cpe dr x_r = sum_{k != j} (cpe cs[k] - cre cp[k]) x_k + cre dp x_b
            new = [sign * (cpe * c - cre * p) for c, p in zip(cs, cp)]
            new[j] = sign * cre * dp
            self.den[r], self.coeffs[r] = _reduce(sign * cpe * self.den[r], new)
        self.den[b] = self.coeffs[b] = None
        self.den[e], self.coeffs[e] = den_e, row_e
        self.nonbasic[j] = b
        self.col[b] = j
        self.col[e] = -1

    def point(self, n: int) -> tuple[list, int]:
        """Unknowns 0..n-1 as numerators over one common denominator."""
        fracs = []
        den = 1
        for v in range(n):
            j = self.col[v]
            if j >= 0:
                fracs.append((self.value[j], 1))
                continue
            num, d = sum(map(mul, self.coeffs[v], self.value)), self.den[v]
            g = math.gcd(num, d)
            num, d = num // g, d // g
            fracs.append((num, d))
            den = den * d // math.gcd(den, d)
        return [num * (den // d) for num, d in fracs], den


def _lattice_has_point(rows: list, n: int) -> bool:
    """Whether the equations terms . x = b have an integer solution x.

    Column operations (extended Euclid, unimodular) bring the matrix to
    lower echelon form H = A U; then H y = b is solved by forward
    substitution, and x = U y is integral exactly when y is.
    """
    cols = [[0] * len(rows) for _ in range(n)]
    for r, (terms, _) in enumerate(rows):
        for v, c in terms:
            cols[v][r] = c
    y: list = []
    for r, (_, b) in enumerate(rows):
        piv = len(y)
        for j in range(piv + 1, n):
            while cols[j][r]:
                if cols[piv][r] == 0 or abs(cols[j][r]) < abs(cols[piv][r]):
                    cols[piv], cols[j] = cols[j], cols[piv]
                    continue
                q = cols[j][r] // cols[piv][r]
                cols[j] = [x - q * z for x, z in zip(cols[j], cols[piv])]
        rest = b - sum(cols[j][r] * y[j] for j in range(piv))
        if piv < n and cols[piv][r]:
            if rest % cols[piv][r]:
                return False
            y.append(rest // cols[piv][r])
        elif rest:
            return False
    return True


class _Search:
    def __init__(self, formulas, nk: int, deadline: float):
        self.nk = nk
        self.deadline = deadline
        self.root = _join(Conj, [_convert(f) for f in formulas])
        self.best: Optional[IntVector] = None
        self.best_sum: Optional[int] = None
        self.gave_up = False
        self._ticks = 0
        self.lp = _Simplex(2 * nk, self._tick)
        # a(i) >= |k(i)|, and one unknown for sum a(i) to cap.
        for i in range(nk):
            a = nk + i
            self.lp.assert_lower(self.lp.unknown(((i, -1), (a, 1))), 0)
            self.lp.assert_lower(self.lp.unknown(((i, 1), (a, 1))), 0)
        self.total = self.lp.unknown(tuple((nk + i, 1) for i in range(nk)))

    def _tick(self) -> None:
        self._ticks += 1
        if self._ticks & 63 == 0 and time.monotonic() > self.deadline:
            raise SolverTimeoutError("built-in backend ran out of time")

    def _assert(self, node, pending: list) -> bool:
        if type(node) is Atom:
            return self.lp.assert_atom(node)
        if type(node) is Disj:
            if not node.parts:
                return False
            pending.append(node)
            return True
        return all(self._assert(p, pending) for p in node.parts)

    def _equalities_integral(self) -> bool:
        """False proves that the pinned forms (lo == hi) have no integer point."""
        lp, rows = self.lp, []
        for v, lo in enumerate(lp.lo):
            if lo is not None and lo == lp.hi[v]:
                terms = lp.terms[v] or ((v, 1),)
                if all(u < self.nk for u, _ in terms):
                    rows.append((terms, lo))
        return _lattice_has_point(rows, self.nk)

    def _offer(self, k: list[int]) -> None:
        """Record a model and cap sum a(i) below it; after a zero model the
        cap is -1, which no point meets, so every open node ends."""
        total = sum(map(abs, k))
        self.best, self.best_sum = tuple(k), total
        self.lp.cap(self.total, total - 1)

    def _node(self, pending: list, depth: int) -> None:
        """Search the region of the current bounds; depth counts integer branches."""
        lp = self.lp
        if depth > MAX_BRANCH_DEPTH:
            self.gave_up = True
            return
        while lp.check():
            nums, den = lp.point(self.nk)
            violated = None
            for p in pending:
                if not evaluate(p, nums, den) and (
                    violated is None or len(p.parts) < len(violated.parts)
                ):
                    violated = p
                    if len(p.parts) == 2:
                        break
            if violated is not None:
                # Child i is explored together with the negations of the
                # children before it, so no region is searched twice.
                rest = [p for p in pending if p is not violated]
                for i, child in enumerate(violated.parts):
                    mark = lp.mark()
                    more = list(rest)
                    if self._assert(child, more) and all(
                        self._assert(_negate(c), more) for c in violated.parts[:i]
                    ):
                        self._node(more, depth)
                    lp.undo(mark)
                return
            # The point scaled to integers (itself when den is 1) may be a model.
            g = math.gcd(den, *nums)
            k = [x // g for x in nums]
            if (self.best is None or sum(map(abs, k)) < self.best_sum) and evaluate(self.root, k):
                self._offer(k)
                continue
            if not self._equalities_integral():
                return
            v = next(i for i, x in enumerate(nums) if x % den)
            floor = nums[v] // den
            branches = [(lp.assert_upper, floor), (lp.assert_lower, floor + 1)]
            if floor < 0:
                branches.reverse()  # the side nearer zero first
            for tighten, bound in branches:
                mark = lp.mark()
                if tighten(v, bound):
                    self._node(pending, depth + 1)
                lp.undo(mark)
            return


def solve(formulas: Sequence[Formula], nvars: int, deadline: float) -> Optional[IntVector]:
    """An integer model of all formulas over nvars unknowns, or None if none.

    The model has the least sum |k(i)| (if the search gave up on some path
    after finding a model, that model is returned, as an external solver's
    minimization keeps its incumbent on 'unknown').
    Raises SolverTimeoutError past the monotonic-clock deadline and
    SolverUnknownError when no model was found and the search was incomplete.
    """
    try:
        search = _Search(formulas, nvars, deadline)
        pending: list = []
        if search._assert(search.root, pending):
            search._node(pending, 0)
    except RecursionError:
        raise SolverUnknownError("built-in backend: formula nests too deeply")
    if search.best is None and search.gave_up:
        raise SolverUnknownError(
            f"built-in backend gave up below {MAX_BRANCH_DEPTH} integer branches"
        )
    return search.best
