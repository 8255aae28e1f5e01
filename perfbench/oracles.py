"""Correctness oracles for the benchmark's queries.

None of them goes through subgroup enumeration: they use closed formulas
(Birkhoff's subgroup count, Gaussian binomials, f_e(r)), the radical (a
Smith form), the lattice span, or exact Q/Z arithmetic done here.  Each
oracle returns None when the answer is right and a message otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod

# expected (name, count) of every Check in `verify all`, seed independent
VERIFY_CHECKS = {
    "isometry.gram-identical": 11,
    "isometry.braiding": 2889,
    "isometry.lift-independence": 180,
    "lagrangian.standard-base": 25,
    "lagrangian.self-duality": 3417,
    "ec8.quad-census": 3,
    "ec8.fold-vs-brute": 1090,
    "ec8.dim7-quantifier": 1000,
    "ec8.torus-census": 1,
    "ec8.model-counts": 3,
    "ec8.hyperplane-census": 255,
    "partitions.f-values": 26,
    "partitions.search-vs-formula": 73,
    "partitions.two-routes": 4,
    "partitions.rank6-reduction": 1,
    "depth.phi-image": 7,
    "tuple-reduction.fuzz": 10000,
    "subquot.multiset-duality": 516,
    "tables.fixtures": 10,
}


# ---------------------------------------------------------------------------
# arithmetic helpers
# ---------------------------------------------------------------------------

def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def partitions_by_prime(orders) -> dict[int, list[int]]:
    """Prime -> exponents (descending) of the cyclic factors' p-parts."""
    out: dict[int, list[int]] = {}
    for n in orders:
        for p, e in factorize(n).items():
            out.setdefault(p, []).append(e)
    for exps in out.values():
        exps.sort(reverse=True)
    return out


def embeds_by_partition(a, b) -> bool:
    """A embeds in B iff every p-partition of A fits inside B's."""
    pa, pb = partitions_by_prime(a), partitions_by_prime(b)
    for p, ea in pa.items():
        eb = pb.get(p, [])
        if len(ea) > len(eb) or any(x > y for x, y in zip(ea, eb)):
            return False
    return True


def is_chain(inv) -> bool:
    return all(d >= 2 for d in inv) and all(inv[i + 1] % inv[i] == 0
                                            for i in range(len(inv) - 1))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _conjugate(part: list[int], length: int) -> list[int]:
    return [sum(1 for x in part if x >= i) for i in range(1, length + 1)]


def _sub_partitions(lam: list[int]):
    def rec(i, cap):
        if i == len(lam):
            yield []
            return
        for x in range(min(cap, lam[i]), -1, -1):
            for rest in rec(i + 1, x):
                yield [x] + rest
    yield from rec(0, lam[0] if lam else 0)


def birkhoff_count(lam: list[int], p: int) -> int:
    """Number of subgroups of the abelian p-group of type lam (Birkhoff):
    sum over mu <= lam of prod_i p^{mu'_{i+1}(lam'_i - mu'_i)}
    [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p."""
    if not lam:
        return 1
    top = lam[0]
    lc = _conjugate(lam, top) + [0]
    total = 0
    for mu in _sub_partitions(lam):
        mc = _conjugate(mu, top) + [0]
        term = 1
        for i in range(top):
            term *= p ** (mc[i + 1] * (lc[i] - mc[i]))
            term *= gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
        total += term
    return total


def subgroup_count(inv) -> int:
    return prod(birkhoff_count(exps, p) for p, exps in partitions_by_prime(inv).items())


def f_bound(r: int, e: int = 0) -> int:
    total = r - e
    for v in range(3, r + 1):
        t = r // v - e
        total += (t + 1) // 2 if t > 0 else 0
    return max(0, total)


def _frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def pairing(gram, x, y) -> Fraction:
    """w(x, y) mod 1 from a Gram matrix of 'a/b' strings."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * _frac(gram[i][j])
    return total - (total.numerator // total.denominator)


def in_lattice(basis, vec) -> bool:
    """Membership of vec in the row lattice of an upper-triangular basis."""
    v = list(vec)
    k = len(basis)
    for i in range(k):
        piv = basis[i][i]
        if v[i] % piv:
            return False
        c = v[i] // piv
        if c:
            for t in range(i, k):
                v[t] -= c * basis[i][t]
    return not any(v)


# ---------------------------------------------------------------------------
# per-kind oracles
# ---------------------------------------------------------------------------

class Oracles:
    """Checks query outputs; `lib` is the imported splitbound package."""

    def __init__(self, lib):
        self.lib = lib

    def check(self, query, out: str):
        fn = getattr(self, "_" + query.kind.replace(".", "_").replace("-", "_"), None)
        if fn is None:
            return f"no oracle for {query.kind}"
        try:
            obj = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not one JSON object"
        if "error" in obj:
            return f"error result: {obj['error']}"
        return fn(query.params, obj)

    # -- helpers over the library (no enumeration) ---------------------------

    def _group(self, inv):
        return self.lib.make_group(inv)

    def _form(self, spec):
        gram = [[self.lib.QmodZ.parse(e) for e in row] for row in spec["gram"]]
        return self.lib.SkewForm(self._group(spec["group"]), gram)

    def _radical_order(self, spec) -> int:
        return self.lib.radical(self._form(spec)).order

    def _span(self, inv, gens):
        g = self._group(inv)
        return self.lib.subgroup_from_generators(g, [g.element(c) for c in gens])

    # -- enumerating ----------------------------------------------------------

    def _pgl_depth(self, params, obj):
        # H = phi(A x A*) has alpha_H = standard module, so
        # depth = 1/2 log_p(|H| / |Rad alpha_H|)
        inv = params["group"]
        a = self._group(inv)
        facts = factorize(a.order)
        if len(facts) != 1:
            return "test input is not a p-group"
        (p, _e), = facts.items()
        w = self.lib.standard_module(a)
        ratio = a.order ** 2 // self.lib.radical(w).order
        log = 0
        while ratio > 1:
            ratio //= p
            log += 1
        want = log // 2
        return None if obj.get("depth") == want else f"depth {obj.get('depth')} != {want}"

    def _max_isotropic(self, spec, obj):
        order = obj["order"]
        g = self._group(spec["group"])
        rad = self._radical_order(spec)
        if order * order != g.order * rad:
            return f"max-isotropic order {order}: order^2 != |H| |Rad| = {g.order * rad}"
        wit = obj["witness"]
        if wit["order"] != order or prod(wit["invariants"]) != order:
            return "witness order mismatch"
        rows = [[c % d for c, d in zip(row, spec["group"])] for row in wit["basis"]]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if pairing(spec["gram"], rows[i], rows[j]):
                    return "witness is not isotropic"
        if list(wit["invariants"]) not in [list(t) for t in obj["types"]]:
            return "witness type missing from the type list"
        return None

    def _form_max_isotropic_standard(self, params, obj):
        return self._max_isotropic(params["form"], obj)

    def _form_max_isotropic_random(self, params, obj):
        return self._max_isotropic(params["form"], obj)

    def _obstruct_compare(self, params, obj):
        p, r, e, rank1 = params["p"], params["r"], params["e"], params["rank1"]
        k1 = rank1 // 2 - min(e, rank1 // 2)
        k2 = r - min(e, r)
        first = [[p] * k1] if k1 else [[]]
        # isotropic subgroups of order p^k2 in (Z/p^r)^2: every type with <= 2 parts
        second = []
        for b in range(0, k2 // 2 + 1):
            a = k2 - b
            second.append(sorted(p ** x for x in (a, b) if x))
        second.sort()
        if obj["types"]["first"] != first or obj["types"]["second"] != second:
            return f"types {obj['types']} != {first}, {second}"
        best = None
        for t2 in second:
            meet = min(k1, len(t2)) if k1 and t2 else 0
            val = p ** (k1 + k2 - meet)
            best = val if best is None else min(best, val)
        return None if obj["bound"] == best else f"bound {obj['bound']} != {best}"

    def _group_subgroups(self, params, obj):
        want = subgroup_count(params["group"])
        if obj["count"] != want:
            return f"subgroup count {obj['count']} != Birkhoff count {want}"
        for t in obj["types"]:
            if t and not embeds_by_partition(t, params["group"]):
                return f"type {t} does not fit in the group"
        return None

    def _group_embeds(self, params, obj):
        want = embeds_by_partition(params["a"], params["b"])
        return None if obj["embeds"] == want else f"embeds {obj['embeds']} != {want}"

    def _qzforms_isotropic_transfer(self, params, obj):
        inv = params["a"]
        n = prod(inv)
        doubled = [d for d in inv for _ in (0, 1)]
        gram = [[str(e) for e in row] for row in self.lib.standard_module(self._group(inv)).gram]
        i1 = obj["i1"]
        rows = i1["basis"]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if pairing(gram, rows[i], rows[j]):
                    return "I1 is not isotropic"
        h1 = self._span(doubled, params["h1"])
        iso = self._span(doubled, params["iso"])
        if (n * i1["order"]) % h1.order:
            return "|H1| does not divide n |I1|"
        quot = self.lib.quotient(self._group(h1.sub_invariants), self._iso_in(h1, iso))
        if i1["invariants"] and not embeds_by_partition(i1["invariants"], quot.invariants):
            return "type(I1) does not embed in H1/I"
        lag = obj["lagrangian"]
        if lag["order"] != n:
            return "Lagrangian of the wrong order"
        if params["search_min"]:
            mo = obj["min_order"]
            if mo is None or mo > i1["order"] or (n * mo) % h1.order:
                return f"min_order {mo} inconsistent"
        elif obj["min_order"] is not None:
            return "min_order reported without search_min"
        return None

    def _iso_in(self, h1, iso):
        """I as a subgroup of the abstract group of H1 (via H1's canonical
        basis; both are small)."""
        basis = h1.canonical_basis()
        a1 = self._group(h1.sub_invariants)
        table = {}
        from itertools import product
        for coords in product(*(range(d) for d in a1.invariants)):
            total = h1.ambient.zero()
            for c, b in zip(coords, basis):
                total = total + c * b
            table[total.coords] = coords
        gens = [a1.element(table[e.coords]) for e in iso.elements()]
        return self.lib.subgroup_from_generators(a1, gens)

    # -- direct ---------------------------------------------------------------

    def _group_span(self, params, obj):
        inv, gens = params["group"], params["gens"]
        if obj["order"] != prod(obj["invariants"]) or not is_chain(obj["invariants"]) \
                and obj["invariants"]:
            return "span order and invariants disagree"
        if prod(inv) % obj["order"]:
            return "|S| does not divide |A|"
        for g in gens:
            if not in_lattice(obj["basis"], g):
                return f"generator {g} not in the span"
        # the span's index: HNF pivots give |A/S| = prod pivots
        if prod(obj["basis"][i][i] for i in range(len(inv))) * obj["order"] != prod(inv):
            return "pivots and order disagree"
        return None

    def _group_quotient(self, params, obj):
        inv = obj["invariants"]
        if inv and not is_chain(inv):
            return "quotient is not an invariant chain"
        s = self._span(params["group"], params["gens"])
        if prod(inv) * s.order != prod(params["group"]):
            return f"|A/S| = {prod(inv)} != |A|/|S| = {prod(params['group']) // s.order}"
        return None

    def _group_reduce(self, params, obj):
        inv, tup = params["group"], params["tuple"]
        a = self._group(inv)
        xs = [a.element(c) for c in tup]
        ops = [tuple(op) for op in obj["ops"]]
        replayed = [list(x.coords) for x in self.lib.replay_ops(a, xs, ops)]
        if replayed != obj["reduced"]:
            return "replay_ops does not reproduce the reduced tuple"
        nonzero = sum(1 for c in obj["reduced"] if any(c))
        if nonzero > a.rank or nonzero != obj["nonzero"]:
            return f"{nonzero} nonzero entries for rank {a.rank}"
        if self._span(inv, tup) != self._span(inv, obj["reduced"]):
            return "reduction changed the generated subgroup"
        return None

    def _image_order(self, spec) -> int:
        """|image of x -> w(x, .)| in A*, spanned by the Gram rows."""
        inv = spec["group"]
        rows = []
        for i in range(len(inv)):
            rows.append([int(_frac(spec["gram"][i][j]) * inv[j]) % inv[j]
                         for j in range(len(inv))])
        return self._span(inv, rows).order

    def _form_radical(self, params, obj):
        spec = params["form"]
        inv = spec["group"]
        for row in obj["basis"]:
            for j in range(len(inv)):
                unit = [int(t == j) for t in range(len(inv))]
                if pairing(spec["gram"], row, unit):
                    return "radical basis row pairs nontrivially"
        if obj["order"] * self._image_order(spec) != prod(inv):
            return "|Rad| |image| != |H|"
        return None

    def _form_nondegenerate(self, params, obj):
        spec = params["form"]
        want = self._image_order(spec) == prod(spec["group"])
        return None if obj["nondegenerate"] == want else f"nondegenerate != {want}"

    def _form_lagrangian(self, params, obj):
        want = params["expect"]
        return None if obj["lagrangian"] == want else f"lagrangian != {want}"

    def _form_quotient_lagrangian(self, params, obj):
        want = list(self._group(params["a"]).invariants)
        return None if obj["invariants"] == want else f"H/L {obj['invariants']} != {want}"

    def _pgl_subgroup(self, params):
        inv = params["group"]
        w = self.lib.standard_module(self._group(inv))
        if "elements" not in params:
            return w, None
        coords = []
        for a, chi in params["elements"]:
            row = []
            for x, y in zip(a, chi):
                row += [x, y]
            coords.append(row)
        g = w.group
        return w, self.lib.subgroup_from_generators(g, [g.element(c) for c in coords])

    def _pgl_alpha(self, params, obj):
        w, s = self._pgl_subgroup(params)
        if s is None:
            got = [[str(e) for e in row] for row in w.gram]
            if obj["group"] != list(w.group.invariants) or obj["gram"] != got:
                return "alpha of the full image differs from the standard module"
            return None
        if obj["group"] != list(s.sub_invariants):
            return f"alpha group {obj['group']} != type of S {list(s.sub_invariants)}"
        alpha_rad = self._radical_order({"group": obj["group"], "gram": obj["gram"]}) \
            if obj["group"] else 1
        restricted = self.lib.restrict(w, s)
        want = self.lib.radical(restricted).order if restricted.group.rank else 1
        return None if alpha_rad == want else f"|Rad alpha| {alpha_rad} != {want}"

    def _pgl_toral(self, params, obj):
        w, s = self._pgl_subgroup(params)
        want = False if s is None else self.lib.is_isotropic(w, s)
        return None if obj["toral"] == want else f"toral != {want}"

    def _f2_count(self, params, obj):
        q = self.lib.F2QuadForm(params["dim"], params["rows"])
        _z, ones = self.lib.count_by_recursion(self.lib.decompose(q))
        if obj["anisotropic"] != ones or obj["isotropic"] != (1 << q.dim) - ones:
            return f"sweep {obj['anisotropic']} != recursion {ones}"
        return None

    def _f2_decompose(self, params, obj):
        from splitbound import f2quad
        q = self.lib.F2QuadForm(params["dim"], params["rows"])
        blocks = obj["blocks"]
        dims = sum(2 if b in ("h", "a") else 1 for b in blocks)
        if dims != q.dim:
            return "blocks do not add up to the dimension"
        if (obj["zeros"], obj["ones"]) != self.lib.count_by_recursion(blocks):
            return "counts do not match the blocks"
        if obj["zeros"] + obj["ones"] != 1 << q.dim:
            return "counts do not add up to 2^dim"
        rad = len(f2quad.radical_basis(q))
        if rad != sum(1 for b in blocks if b in ("one", "zero")):
            return "radical dimension disagrees with the blocks"
        return None

    def _obstruct_min_partition(self, params, obj):
        p, r, e = params["p"], params["r"], params["e"]
        total, wit = obj["total"], obj["witness"]
        if total < f_bound(r, e) or obj["fe"] != f_bound(r, e):
            return f"total {total} below f_e(r) = {f_bound(r, e)}"
        if sum(wit) != total or obj["bound"] != p ** total:
            return "witness, total and bound disagree"
        q = self.lib.ObstructionQuery(p, r, e)
        if not self.lib.partition_feasible(q, self.lib.PartitionCandidate(tuple(wit))):
            return "witness is not feasible"
        return None

    def _obstruct_thm13(self, params, obj):
        p, r, e = params["p"], params["r"], params["e"]
        want = p ** max(0, 2 * r - 2 * e - 2)
        return None if obj["bound"] == want else f"bound != {want}"

    def _obstruct_fe(self, params, obj):
        want = f_bound(params["r"], params["e"])
        return None if obj["bound"] == want else f"f_e(r) {obj['bound']} != {want}"

    def _tables_torsion(self, params, obj):
        known = {"A": [], "C": [], "B": [2], "D": [2], "G2": [2], "F4": [2, 3],
                 "E6": [2, 3], "E7": [2, 3], "E8": [2, 3, 5]}
        want = known[params["series"]]
        return None if obj["primes"] == want else f"torsion {obj['primes']} != {want}"

    def _tables_tits(self, params, obj):
        n = obj["n"]
        if not isinstance(n, int) or n < 1:
            return "n(G) is not a positive integer"
        if params["series"] == "E8" and (n != 17280 or obj.get("candidates") != [1920, 2880, 2160]):
            return "E8 entry differs from the table"
        return None

    def _tables_check(self, params, obj):
        desc = self.lib.GroupDescriptor(params["series"], params.get("rank"),
                                        not params.get("adjoint", False))
        want = self.lib.tits_n(desc) % params["p"] ** params["d"] == 0
        return None if obj["divides"] == want else f"divides != {want}"

    def _tables_divisors(self, params, obj):
        want = {"E7_splitting": 12, "E8_splitting": 60}
        return None if obj == want else f"divisors {obj} != {want}"

    def _tables_quadform(self, params, obj):
        n = params["n"]
        val = (n - 1) // 2 if params["det_one"] else (n + 1) // 2
        return None if obj == {"upper_l": val, "lower_exp": val} else "quadform exponents"

    def _tables_dump(self, params, obj):
        want = {"torsion", "tits", "e8_candidates", "e8_resolution", "depths"}
        if set(obj) != want or obj["depths"]["E8"] != {"2": 2, "3": 1, "5": 1}:
            return "table dump is missing rows"
        return None

    # -- replay ---------------------------------------------------------------

    def _verify_all(self, params, obj):
        errors = check_verify_checks(obj["checks"])
        if obj["passed"] is not True:
            errors.append("verify all did not pass")
        return "; ".join(errors) or None


def check_verify_checks(checks) -> list[str]:
    """Errors of a `verify all` payload: every check passed and every
    known check is present with its known count."""
    errors = []
    seen = {c["name"]: c for c in checks}
    for c in checks:
        if not c["passed"]:
            errors.append(f"{c['name']} failed")
    for name, count in VERIFY_CHECKS.items():
        c = seen.get(name)
        if c is None:
            errors.append(f"{name} missing")
        elif c["count"] != count:
            errors.append(f"{name} count {c['count']} != {count}")
    return errors
