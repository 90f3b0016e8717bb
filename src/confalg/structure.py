"""Structural operations: conformal identities, untwisting inner-derivation
structures to pure currents, currentness certificates, the dual identity on
component slices, ideal transfer in both directions, and nilpotency indices.
"""


import itertools

from .algebra import MAX_UNTWIST_KEYS, AlgebraError, Element, element_nilpotency_index, rank_0
from .conformal import CElement
from .constructions import SpanReducer, first_sight, make_current, product_table
from .linalg import Echelon, pol_constant_intersection, solve_right
from .rings import inv_factorial


class StructureError(AlgebraError):
    pass


def _check_degree(degree):
    """Refuse a degree window below 0: it holds no basis symbol, so a
    report on it would certify nothing."""
    if degree < 0:
        raise StructureError("degree must be >= 0, got %d" % degree)


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


def _order0_images(c, e, degree):
    """(key, b~, e (0) b~) for every basis symbol b up to the degree window,
    one order-0 product each."""
    out = []
    for key in c.base.basis_upto(degree):
        v = c.tilde(c.base.basis_element(key))
        out.append((key, v, c.nprod(e, v, 0)))
    return out


def _identity_report(c, e, degree, images):
    """is_conformal_identity's report, read off the order-0 images."""
    failures = []
    for key, v, w in images:
        if w != v:
            failures.append({"check": "left_identity", "basis": c.base.key_name(key)})
    for n in c.nprod_all(e, e):
        if n:
            failures.append({"check": "self_product", "order": n})
    return {"ok": not failures, "degree": degree, "failures": failures}


def is_conformal_identity(c, e, degree=4):
    """Certify e: order-0 left action fixes every basis symbol up to the
    degree window, and all self-products of order >= 1 vanish. The order-0
    rule extends over D-multiples exactly, so basis symbols suffice; each
    symbol's order-0 image is made once. Returns a report; ok is True
    exactly when e is certified. A degree below 0 is refused."""
    _check_degree(degree)
    return _identity_report(c, e, degree, _order0_images(c, e, degree))


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
    basis symbols, or a degree below 0, is refused before any product is
    taken."""
    _check_degree(degree)
    if c.der.kind != "ad":
        raise StructureError("untwist needs an inner derivation")
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

    # key -> (image of the key's symbol, its map), made once per key
    made = {}

    def image(key):
        got = made.get(key)
        if got is None:
            v = c.nprod(c.tilde(c.base.basis_element(key)), e_int, 0)
            got = made[key] = (v, v.to_map())
        return got

    images = {c.base.key_name(key): image(key)[0] for key in keys}

    # each image pair is multiplied once, for the table; purity reads it.
    # A key product is one key or 0 (BaseAlgebra.key_product), so the
    # expected order-0 entry is an image already made, or one made once
    # for a product key past the window.
    table = product_table(c, list(images.items()))
    pure = True
    for entry, (key1, key2) in zip(table, itertools.product(keys, keys)):
        key = c.base.key_product(key1, key2)
        expected = {} if key is None else image(key)[1]
        orders = entry["orders"]
        if set(orders) - {"0"} or orders.get("0", {}) != expected:
            pure = False

    certified = is_conformal_identity(c, e_prime, degree)["ok"]
    rt = c.nprod(c.nprod(c.tilde(r), e_prime, 0), e_prime, 0)
    roundtrip_exact = rt == c.tilde(r)
    if m <= 2 and not roundtrip_exact:
        raise StructureError("double identity action failed on a square-zero twist")

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
        "constant_slice_is_one": e0 == base.one(),
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
    zero), so reruns are reproducible. A degree below 0 is refused.

    The commutators of the spanning elements depend only on the view and
    the degree, so they are read from the view's cached table
    (Subalgebra.commutators): with s spanning elements, the first call for
    a degree makes s(s-1) products for the table, and every call makes 2s
    for the targets [a, u]. Each distinct equation is passed to the solver
    once: the reduced echelon form, and so the witness, depends only on the
    row space. The targets are read as item maps
    (BaseAlgebra.commutator_items); no Element is built for them."""
    _check_degree(degree)
    if a.alg != sub.parent:
        raise StructureError("element must live in the parent algebra")
    vs, table = sub.commutators(degree)
    if not vs:
        return CurrentnessVerdict(degree, False, None)
    # one equation per basis key of [v, u] or [a, u], as its nonzero
    # (unknown, coefficient) pairs and its right-hand side
    equations = {}
    commutator = sub.parent.commutator_items
    for u, row in zip(vs, table):
        target = commutator(a.items, u.items)
        for key, b in target.items():
            equations[row.get(key, ()), b] = None
        for key, coeffs in row.items():
            if key not in target:
                equations[coeffs, 0] = None
    rows = []
    for coeffs, _ in equations:
        dense = [0] * len(vs)
        for j, c in coeffs:
            dense[j] = c
        rows.append(dense)
    sol = solve_right(rows, [b for _, b in equations])
    if sol is None:
        return CurrentnessVerdict(degree, False, None)
    witness = sub.parent.zero()
    for cs, v in zip(sol, vs):
        witness = witness.add(v.scale(cs))
    return CurrentnessVerdict(degree, True, witness)


class IdealPair:
    """A base-ideal degree slice together with its conformal counterpart,
    conf_span, which ideal_lift fills and nilpotency_check leaves None."""

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
    ideal. A degree below 0 is refused.

    A left factor b1 g may leave the window while b1 g b2 comes back into
    it, so every nonzero left factor is multiplied by the basis, each
    distinct one once; a zero one is not. Only distinct nonzero candidates
    inside the window enter the echelon, and the two-sided check reduces
    each distinct product once, skipping those the echelon was built from.

    Products are taken on item maps (BaseAlgebra.mul_items); an Element is
    built only for a span row. Each product of a factor (g or a left
    factor) with a basis element, on either side, is made once per call:
    for a span element equal to such a factor, the two-sided check skips
    the products the lift has made and kept.

    The carrier is graded (BaseAlgebra.key_degree), so a product whose
    factors' low degrees sum past the window has no term inside it; such a
    product, here or in the two-sided check, is skipped before it is
    made.

    On the full basis (no view) the slice is two-sided by proof unless a
    product the lift made straddles the window, with keys both inside and
    past it; then, and inside a view, whose spanning elements need not be
    keys, the check makes its products. The proof rests on the carrier
    contract (BaseAlgebra.key_product): a product of two keys is 0 or one
    key, the product is associative, a product's key has degree at least
    the sum of its factors', and basis_upto(d) holds every key of degree
    <= d. Every candidate c is g, b1 g, g b1 or b1 g b2 for basis keys b1,
    b2. For a basis key b, regrouping b c and c b gives one of these forms
    again: b g, g b and b1 g b as they stand, and b (b1 g) = (b b1) g,
    b (b1 g b2) = (b b1) g b2, b (g b1) = (b g) b1, g b1 b = g (b1 b) and
    b1 g b2 b = b1 g (b2 b), where b b1 and b2 b are 0 or one key b'. So
    b c and c b are 0, a product the lift made, or wholly past the window:
    the lift skips only products whose factors leave no room in it, and
    b' is a basis key
    unless its degree is past it. Each product the lift made is 0, a
    candidate or a repeat of one (so in the span), wholly past the window,
    or straddling. If none straddled, then for a span element u = sum
    lambda_c c the product b u is a span element plus terms wholly past the
    window; the check reads b u only when it lies inside the window, and
    then those terms cancel, so b u is in the span. The same holds for u b,
    so the slice is two-sided and no product is made."""
    pair, two_sided = _lift(c, gens, degree, within)
    pair.conf_span = [c.tilde(u) for u in pair.base_span]
    pair.two_sided = two_sided()
    return pair


def _lift(c, gens, degree, within):
    """The lift of ideal_lift, which nilpotency_check shares: the IdealPair
    with conf_span and two_sided left None, and ideal_lift's two-sided
    check, which makes its products only when called."""
    _check_degree(degree)
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
    mul, key_degree = base.mul_items, base.key_degree
    candidates = []
    seen = set()
    straddled = False

    # every product the lift makes passes through keep, which also records
    # whether one had keys both inside and past the window
    def keep(m):
        nonlocal straddled
        if not m:
            return
        if max(map(key_degree, m)) <= degree:
            if first_sight(seen, m):
                candidates.append(m)
        elif min(map(key_degree, m)) <= degree:
            straddled = True

    lows = [(b.items, b.low_degree()) for b in basis]
    for g in gens:
        keep(g.items)
    lefts = set()
    for g in gens:
        gi = g.items
        room = degree - g.low_degree()
        for b1, low1 in lows:
            if low1 > room:
                continue
            left = mul(b1, gi)
            keep(left)
            keep(mul(gi, b1))
            if left and first_sight(lefts, left):
                room2 = degree - min(map(key_degree, left))
                for b2, low2 in lows:
                    if low2 <= room2:
                        keep(mul(left, b2))
    # the factors whose products with every basis element inside the room
    # their low degree leaves the lift has made and kept: b g and g b for a
    # generator g, l b for a left factor l. Each such product is 0, past
    # the window or a candidate, so the two-sided check does not make it
    # again for a span element with the same items.
    lefts_made = {frozenset(g.items.items()) for g in gens}
    rights_made = lefts_made | lefts
    ech = Echelon(candidates)
    span = [Element(base, row) for _, row in ech.basis()]

    def outside(p):
        # every candidate lies in the span, so seen, which holds them, is
        # extended here, not restarted
        return p and max(map(key_degree, p)) <= degree and first_sight(seen, p) and ech.reduce(p)

    def two_sided():
        if within is None and not straddled:
            return True
        for u in span:
            ui = u.items
            key = frozenset(ui.items())
            check_left = key not in lefts_made
            check_right = key not in rights_made
            room = degree - u.low_degree()
            for b, lowb in lows:
                if lowb > room:
                    continue
                if check_left and outside(mul(b, ui)):
                    return False
                if check_right and outside(mul(ui, b)):
                    return False
        return True

    delta_stable = all(not ech.reduce(c.der.apply(u).items) for u in span)
    return IdealPair(span, None, degree, delta_stable, None), two_sided


def ideal_restrict(c, celems):
    """Constant part of the module span: all base elements b with b~ in the
    Q[D]-span of the given conformal elements, as a reduced echelon basis."""
    return [Element(c.base, vec) for vec in pol_constant_intersection([e.items for e in celems])]


def nilpotency_check(c, gens, degree=4, within=None):
    """Nilpotency index of the ideal slice on both sides of the transfer.
    Carrier side: S_{k+1} = S_k S_1. Module side: T_{k+1} spanned by the
    left-normed products of T_k spanning elements with T_1 at every order.
    The two indices must agree for the lift to be faithful.

    Both sides run one loop (_level_index) on item maps of the carrier,
    X_{k+1} = X_k V for a fixed spanning set V: S_1 on the carrier side,
    and on the module side a basis of the nonzero delta^m images of the
    S_1 elements.
    That loop is the module side itself: T_1 is the tilde of S_1, and
    products of tildes are tildes, u~ (n) v~ = (-1)^n (u delta^n v)~, so
    T_k is the tilde of X_k. The levels hold constant vectors only, whose
    rank over Q(D) is their rank over Q, so no conformal product is taken.
    Right multiplication by V is Q(x)-linear, so the spans
    Z_k = X_k + X_{k+1} + ... shrink, stay put once two agree, and live in
    a space of dimension N = rank_0. A sequence that vanishes at all
    vanishes by k = N + 1; one that does not is refused. A level equal to
    the one before it is refused at once: the sequence is constant and
    nonzero from there on. A carrier slice with a spanning element that is
    not nilpotent is refused before any level: u^k lies in S_k, so no S_k
    is 0. A zero slice is refused before any level: it has no index to
    compare, and S_1 = 0 would read as index 1. The slice is lifted as
    ideal_lift lifts it, without the two-sided check, whose verdict the
    report does not read."""
    return _nilpotency_report(c, _lift(c, gens, degree, within)[0])


def _nilpotency_report(c, pair):
    """nilpotency_check's report for an ideal slice already lifted, so a
    caller that needs the pair too lifts it once. Both indices are read off
    pair.base_span; pair.conf_span, its tilde, is not read."""
    if not pair.base_span:
        raise StructureError(
            "ideal slice of degree %d is 0: there is no level to take an index of" % pair.degree
        )
    last = rank_0(c.base) + 1
    for u in pair.base_span:
        try:
            element_nilpotency_index(u)
        except AlgebraError:
            raise StructureError(
                "carrier ideal slice is not nilpotent: its spanning element %r is not"
                " nilpotent" % (u,)
            ) from None
    s1 = [u.items for u in pair.base_span]
    base_index = _level_index(c, s1, s1, last, "carrier", "S")
    # V is the reduced basis of the delta-orbits of S_1, which overlap. S_1
    # is a reduced basis too, so where it is delta-stable (delta kills it,
    # say) V is S_1, and the module levels are the carrier's
    images = Echelon(w.items for u in pair.base_span for w in c.der.orbit(u))
    orbits = [row for _, row in images.basis()]
    conf_index = base_index if orbits == s1 else _level_index(c, s1, orbits, last, "module", "T")
    return {
        "degree": pair.degree,
        "delta_stable": pair.delta_stable,
        "base_index": base_index,
        "conformal_index": conf_index,
        "agree": base_index == conf_index,
    }


def _level_index(c, first, step, last, side, name):
    """The least k <= last with X_k = 0, where X_1 = first and X_{k+1} is
    the reduced echelon basis of the products u v, u in X_k and v in step,
    all item maps. A level equal to the one before it, or a nonzero X_last,
    is refused."""
    mul = c.base.mul_items
    level = first
    for k in range(2, last + 1):
        nxt = [row for _, row in Echelon(mul(u, v) for u in level for v in step).basis()]
        if not nxt:
            return k
        if nxt == level:
            break
        level = nxt
    raise StructureError("%s ideal slice is not nilpotent: %s_%d is not 0" % (side, name, k))


def unital_split(c, e, degree=4):
    """Split the degree window under the order-0 action of e: the action is
    idempotent when e (0) e = e, so the window is image plus kernel; ranks
    are reported over the fraction field of Q[D]. Each basis symbol's
    order-0 image is made once and serves both the identity certificate and
    the image span, which reduces each distinct nonzero image once. A
    degree below 0 is refused."""
    _check_degree(degree)
    images = _order0_images(c, e, degree)
    certified = _identity_report(c, e, degree, images)["ok"]
    image = SpanReducer()
    seen = set()
    for _, _, w in images:
        if w.items and first_sight(seen, w.items):
            image.add(w)
    image_rank = image.rank
    module_rank = len(images)
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
