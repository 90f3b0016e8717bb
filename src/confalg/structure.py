"""Structural operations: conformal identities, untwisting inner-derivation
structures to pure currents, currentness certificates, the dual identity on
component slices, ideal transfer in both directions, and nilpotency indices.
"""


from .algebra import MAX_UNTWIST_KEYS, AlgebraError, Element, element_nilpotency_index, rank_0
from .conformal import CElement, coeff_matrix
from .constructions import SpanReducer, make_current, product_table
from .linalg import Echelon, pol_constant_intersection, solve_right
from .rings import inv_factorial


class StructureError(AlgebraError):
    pass


def component_slices(a):
    """D-power slices of a conformal element, as base elements: the map
    k -> a_k with a = sum_k D^k (a_k)~."""
    base = a.conf.base
    out = {}
    for key, p in a.items.items():
        for i in range(p.degree() + 1):
            c = p.coeff(i)
            if c:
                out.setdefault(i, {})[key] = c
    return {i: Element(base, m) for i, m in sorted(out.items())}


def is_conformal_identity(c, e, degree=4):
    """Certify e: order-0 left action fixes every basis symbol up to the
    degree window, and all self-products of order >= 1 vanish. The order-0
    rule extends over D-multiples exactly, so basis symbols suffice.
    Returns a report; ok is True exactly when e is certified."""
    failures = []
    for key in c.base.basis_upto(degree):
        v = c.tilde(c.base.basis_element(key))
        if c.nprod(e, v, 0) != v:
            failures.append({"check": "left_identity", "basis": c.base.key_name(key)})
    bound = c.structural_bound(e, e)
    if bound is not None:
        for n in range(1, bound + 1):
            if not c.nprod(e, e, n).is_zero():
                failures.append({"check": "self_product", "order": n})
    return {"ok": not failures, "degree": degree, "failures": failures}


class UntwistResult:
    __slots__ = (
        "e_prime",
        "certified",
        "images",
        "table",
        "pure",
        "roundtrip_exact",
        "nilpotency",
    )

    def __init__(self, e_prime, certified, images, table, pure, roundtrip_exact, nilpotency):
        self.e_prime = e_prime
        self.certified = certified
        self.images = images
        self.table = table
        self.pure = pure
        self.roundtrip_exact = roundtrip_exact
        self.nilpotency = nilpotency


def untwist(c, degree=2):
    """Rewrite a structure twisted by an inner derivation ad(r), r nilpotent,
    as pure currents: b~ maps to b~ (0) e_int with the alternating-sign
    series e_int = sum (-1)^k/k! D^k (r^k)~, and the returned identity
    candidate is the plain-sign series e' = sum 1/k! D^k (r^k)~, with
    whether is_conformal_identity certifies it.

    The image products are checked to be genuinely current (order 0 equal to
    the image of the base product, higher orders zero). The double action of
    e' on r~ reproduces r~ exactly when r^2 = 0; for higher nilpotency the
    defect is reported, not raised. A window of more than MAX_UNTWIST_KEYS
    basis symbols is refused before any product is taken."""
    if c.der.kind != "ad":
        raise StructureError("untwist needs an inner derivation")
    if not c.base.is_unital():
        raise StructureError("untwist needs a unital carrier")
    keys = c.base.basis_upto(degree)
    if len(keys) > MAX_UNTWIST_KEYS:
        raise StructureError(
            "untwist window of degree %d has %d basis symbols, at most %d"
            % (degree, len(keys), MAX_UNTWIST_KEYS)
        )
    r = c.der.r
    m = element_nilpotency_index(r)
    one = c.base.one()

    def series(sign):
        out = c.zero()
        power = one
        for k in range(m):
            coef = inv_factorial(k) * (sign**k)
            out = out.add(c.tilde(power.scale(coef)).dapply(k))
            power = power.mul(r)
        return out

    e_prime = series(1)
    e_int = series(-1)

    def image(b):
        return c.nprod(c.tilde(b), e_int, 0)

    names = [c.base.key_name(k) for k in keys]
    images = {}
    for key, name in zip(keys, names):
        images[name] = image(c.base.basis_element(key))

    pure = True
    for key1, name1 in zip(keys, names):
        for key2, name2 in zip(keys, names):
            prods = c.nprod_all(images[name1], images[name2])
            expected = image(c.base.basis_element(key1).mul(c.base.basis_element(key2)))
            if set(prods) - {0}:
                pure = False
            if prods.get(0, c.zero()) != expected:
                pure = False

    certified = is_conformal_identity(c, e_prime, degree)["ok"]
    rt = c.nprod(c.nprod(c.tilde(r), e_prime, 0), e_prime, 0)
    roundtrip_exact = rt == c.tilde(r)
    if m <= 2 and not roundtrip_exact:
        raise StructureError("double identity action failed on a square-zero twist")

    table = product_table(c, [(n, images[n]) for n in names])
    return UntwistResult(e_prime, certified, images, table, pure, roundtrip_exact, m)


def dual_identity_consistency(c, e, b=None):
    """Check a candidate identity against its component-side dual: reading
    the same coefficients in the pure current structure, the order-1
    self-product must vanish, which pins the slice recursion
    (k+1) e_{k+1} = e_1 e_k. With a companion element b (slices
    b_i = b_0 e_1^i / i!) the constant slice of the order-1 action on b is
    the commutator -[e_1, b_0]."""
    certified = is_conformal_identity(c, e)["ok"]
    base = c.base
    cur = make_current(base)
    comps = component_slices(e)
    e0 = comps.get(0, base.zero())
    e1 = comps.get(1, base.zero())
    top = max(comps) if comps else 0

    recursion_failures = []
    for k in range(top + 1):
        lhs = comps.get(k + 1, base.zero()).scale(k + 1)
        rhs = e1.mul(comps.get(k, base.zero()))
        if lhs != rhs:
            recursion_failures.append(k)

    ebar = CElement(cur, dict(e.items))
    dual = cur.nprod(ebar, ebar, 1)
    dual_zero = dual.is_zero()

    report = {
        "certified": certified,
        "constant_slice_is_one": base.is_unital() and e0 == base.one(),
        "dual_order1_zero": dual_zero,
        "recursion_failures": recursion_failures,
        "consistent": dual_zero and not recursion_failures,
    }

    if b is not None:
        bcomps = component_slices(b)
        b0 = bcomps.get(0, base.zero())
        companion = True
        power = b0
        for i in range(1, (max(bcomps) if bcomps else 0) + 1):
            power = power.mul(e1)
            if bcomps.get(i, base.zero()) != power.scale(inv_factorial(i)):
                companion = False
                break
        bbar = CElement(cur, dict(b.items))
        act = cur.nprod(ebar, bbar, 1)
        d0 = component_slices(act).get(0, base.zero())
        expected = b0.mul(e1).sub(e1.mul(b0))
        report["companion"] = companion
        report["action_d0"] = d0.to_map()
        report["expected_d0"] = expected.to_map()
        report["action_consistent"] = d0 == expected
        report["consistent"] = report["consistent"] and (not companion or d0 == expected)
    return report


class CurrentnessVerdict:
    __slots__ = ("degree", "current", "witness")

    def __init__(self, degree, current, witness):
        self.degree = degree
        self.current = current
        self.witness = witness


def is_current(sub, a, degree):
    """Decide whether a acts on the degree slice of the subalgebra like one
    of its own elements: solve sum_s c_s [v_s, u] = [a, u] over all spanning
    u. The witness is the canonical particular solution (free unknowns
    zero), so reruns are reproducible."""
    if a.alg != sub.parent:
        raise StructureError("element must live in the parent algebra")
    vs = sub.span_upto(degree)
    if not vs:
        return CurrentnessVerdict(degree, False, None)
    rows = []
    rhs = []
    for u in vs:
        comms = [v.mul(u).sub(u.mul(v)) for v in vs]
        target = a.mul(u).sub(u.mul(a))
        keys = sorted(set().union(set(target.items), *[set(w.items) for w in comms]))
        for key in keys:
            rows.append([w.items.get(key, 0) for w in comms])
            rhs.append(target.items.get(key, 0))
    sol = solve_right(rows, rhs)
    if sol is None:
        return CurrentnessVerdict(degree, False, None)
    witness = sub.parent.zero()
    for cs, v in zip(sol, vs):
        witness = witness.add(v.scale(cs))
    return CurrentnessVerdict(degree, True, witness)


def _echelon_elements(alg, elems):
    """Canonical Q-spanning list for a set of base elements: the reduced
    echelon basis, sorted by pivot key."""
    return [Element(alg, row) for _, row in Echelon(e.items for e in elems).basis()]


class IdealPair:
    """A base-ideal degree slice together with its conformal counterpart."""

    __slots__ = ("base_span", "conf_span", "degree", "delta_stable", "two_sided")

    def __init__(self, base_span, conf_span, degree, delta_stable, two_sided):
        self.base_span = base_span
        self.conf_span = conf_span
        self.degree = degree
        self.delta_stable = delta_stable
        self.two_sided = two_sided


def ideal_lift(c, gens, degree=4, within=None):
    """Two-sided ideal slice generated in the carrier (or in a subalgebra
    view of it), lifted to the module: span of b1 g b2 up to the degree
    window, its symbols as conformal spanning set. Also reports whether the
    slice is stable under delta; only a stable slice generates a conformal
    ideal."""
    base = c.base
    for g in gens:
        if g.alg != base:
            raise StructureError("ideal generator outside the carrier")
    if within is None:
        basis = [base.basis_element(k) for k in base.basis_upto(degree)]
    else:
        if within.parent != base:
            raise StructureError("subalgebra view over a different carrier")
        for g in gens:
            if not within.member(g, degree):
                raise StructureError("ideal generator outside the subalgebra")
        basis = within.span_upto(degree)
    raw = list(gens)
    for g in gens:
        for b1 in basis:
            left = b1.mul(g)
            raw.append(left)
            raw.append(g.mul(b1))
            for b2 in basis:
                p = left.mul(b2)
                if p.degree() <= degree:
                    raw.append(p)
    raw = [p for p in raw if p.degree() <= degree]
    span = _echelon_elements(base, raw)
    ech = Echelon(u.items for u in span)

    def member(v):
        return not ech.reduce(v.items)

    delta_stable = all(member(c.der.apply(u)) for u in span)
    two_sided = True
    for u in span:
        for b in basis:
            for p in (b.mul(u), u.mul(b)):
                if p.degree() <= degree and not member(p):
                    two_sided = False
    conf_span = [c.tilde(u) for u in span]
    return IdealPair(span, conf_span, degree, delta_stable, two_sided)


def ideal_restrict(c, celems):
    """Constant part of the module span: all base elements b with b~ in the
    Q[D]-span of the given conformal elements, as a reduced echelon basis."""
    keys, rows = coeff_matrix(list(celems))
    return [Element(c.base, dict(zip(keys, vec))) for vec in pol_constant_intersection(rows)]


def nilpotency_check(c, gens, degree=4, within=None):
    """Nilpotency index of the ideal slice on both sides of the transfer.
    Carrier side: S_{k+1} = S_k S_1. Module side: T_{k+1} spanned by the
    left-normed products of T_k spanning elements with T_1 at every nonzero
    order. The two indices must agree for the lift to be faithful.

    Both sequences read X_{k+1} = X_k V for a fixed span V: S_1, or on the
    module side the delta^m images of S_1, since products of tildes are
    tildes. Right multiplication by V is Q(x)-linear, so the spans
    Z_k = X_k + X_{k+1} + ... shrink, stay put once two agree, and live in
    a space of dimension N = rank_0. A sequence that vanishes at all
    vanishes by k = N + 1; one that does not is refused. A carrier level
    equal to the one before it is refused at once: the sequence is constant
    and nonzero from there on. So is a module level that spans the space of
    the one before it: the next level spans the same as it does."""
    pair = ideal_lift(c, gens, degree, within=within)
    last = rank_0(c.base) + 1
    s1 = pair.base_span

    base_index = None
    level = s1
    for k in range(2, last + 1):
        nxt = _echelon_elements(c.base, [u.mul(v) for u in level for v in s1])
        if not nxt:
            base_index = k
            break
        if nxt == level:
            break
        level = nxt
    if base_index is None:
        raise StructureError("carrier ideal slice is not nilpotent: S_%d is not 0" % k)

    t1 = pair.conf_span
    conf_index = None
    level = t1
    for k in range(2, last + 1):
        nxt = []
        reducer = SpanReducer()
        for u in level:
            for v in t1:
                for n, w in sorted(c.nprod_all(u, v).items()):
                    if reducer.add(w):
                        nxt.append(w)
        if not nxt:
            conf_index = k
            break
        # every level is Q(D)-independent (T_1 is the tilde of an echelon
        # basis), so equal lengths and T_(k-1) inside span T_k mean one span
        if len(nxt) == len(level) and not any(reducer.add(u) for u in level):
            break
        level = nxt
    if conf_index is None:
        raise StructureError("module ideal slice is not nilpotent: T_%d is not 0" % k)

    return {
        "degree": degree,
        "delta_stable": pair.delta_stable,
        "base_index": base_index,
        "conformal_index": conf_index,
        "agree": base_index == conf_index,
    }


def unital_split(c, e, degree=4):
    """Split the degree window under the order-0 action of e: the action is
    idempotent when e (0) e = e, so the window is image plus kernel; ranks
    are reported over the fraction field of Q[D]."""
    certified = is_conformal_identity(c, e, degree)["ok"]
    keys = c.base.basis_upto(degree)
    image = SpanReducer()
    for k in keys:
        image.add(c.nprod(e, c.tilde(c.base.basis_element(k)), 0))
    image_rank = image.rank
    module_rank = len(keys)
    return {
        "degree": degree,
        "identity_certified": certified,
        "module_rank": module_rank,
        "image_rank": image_rank,
        "kernel_rank": module_rank - image_rank,
    }


__all__ = [
    "StructureError",
    "component_slices",
    "is_conformal_identity",
    "UntwistResult",
    "untwist",
    "dual_identity_consistency",
    "CurrentnessVerdict",
    "is_current",
    "IdealPair",
    "ideal_lift",
    "ideal_restrict",
    "nilpotency_check",
    "unital_split",
]
