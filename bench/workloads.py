"""The three benchmark workloads and the check each op's result must pass.

A workload has a set-up (structure builds and spec loads), a fixed list of
warm-up ops and an endless seeded sequence of cycles, each a list of ops. An op is one
call into a public entry point; its check compares the result with the
expected value. Op closures look functions up on the module at call time,
so a tracer's wrappers are seen.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPECS = os.path.join(ROOT, "specs")

PINS_FILE = os.path.join(HERE, "pins.json")


def load_pins():
    """Expected values recorded from the library by make_pins.py."""
    with open(PINS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def _seed32(rng):
    return rng.getrandbits(32)


# --- oracle: the paper's two-route product check --------------------------

ORACLE_ARGS = {"window": 8, "degree": 3, "pdeg": 2}
ORACLE_SAMPLES = 2
ORACLE_WARMUP_SEED = 12345


def oracle_structures(m):
    """Criterion 3's three structures."""
    base = m.algebra.MatrixPolyAlgebra(2)
    return [
        ("cend1", m.constructions.make_cend(1)),
        ("cur_matrix2", m.constructions.make_current(m.algebra.MatrixAlgebra(2))),
        (
            "dif_matrix_poly2_ad_e12",
            m.constructions.make_differential(
                base, m.algebra.Derivation.ad(base.parse_element({"e12": "1"}))
            ),
        ),
    ]


def _oracle_op(m, name, c, seed):
    def call():
        return m.oracle.oracle_check(c, samples=ORACLE_SAMPLES, seed=seed, **ORACLE_ARGS)

    def check(r):
        return r["ok"] is True and r["orders_checked"] > 0 and r["samples"] == ORACLE_SAMPLES

    return Op("oracle_check:" + name, call, check)


class OracleWorkload:
    def setup(self, m):
        self.m = m
        self.structures = oracle_structures(m)

    def warmup(self):
        return [_oracle_op(self.m, n, c, ORACLE_WARMUP_SEED) for n, c in self.structures]

    def cycles(self, seed):
        rng = random.Random(seed)
        while True:
            yield [_oracle_op(self.m, n, c, _seed32(rng)) for n, c in self.structures]


# --- cli: README commands through confalg.cli.main -------------------------


def _spec(name):
    return os.path.join(SPECS, name)


# (op name, argv, seeded): every README command except oracle-check
CLI_COMMANDS = [
    ("table", ["table", _spec("cend1.json")], False),
    ("table:cur_matrix2", ["table", _spec("cur_matrix2.json")], False),
    ("table:dif_matrix2_ad_e12", ["table", _spec("dif_matrix2_ad_e12.json")], False),
    ("product", ["product", _spec("cend1.json"), "L1", "1", "L1"], False),
    ("locality", ["locality", _spec("cend1.json"), "L1", "L1"], False),
    ("check-axioms:cend1", ["check-axioms", _spec("cend1.json"), "--samples", "200"], True),
    (
        "check-axioms:cur_matrix2",
        ["check-axioms", _spec("cur_matrix2.json"), "--samples", "200"],
        True,
    ),
    (
        "check-axioms:dif_matrix2_ad_e12",
        ["check-axioms", _spec("dif_matrix2_ad_e12.json"), "--samples", "200"],
        True,
    ),
    ("assoc-check", ["assoc-check", _spec("cend1.json")], True),
    ("untwist", ["untwist", _spec("dif_matrix2_ad_e12.json")], False),
    (
        "dual-identity",
        ["dual-identity", _spec("dif_matrix2_ad_e12.json"), "ePrime", "companion"],
        False,
    ),
    ("is-current", ["is-current", _spec("noncur.json"), "a", "--degree", "4"], False),
    ("ideal-check", ["ideal-check", _spec("ideal_triangular.json"), "J", "--degree", "0"], False),
    ("unital-split", ["unital-split", _spec("cend1.json"), "one"], False),
    ("kernel-decompose", ["kernel-decompose", _spec("cend1.json"), "x^2"], False),
    ("gk", ["gk", _spec("cend1.json"), "--rmax", "12"], False),
]

CLI_SPECS = [
    "cend1.json",
    "cur_matrix2.json",
    "dif_matrix2_ad_e12.json",
    "ideal_triangular.json",
    "noncur.json",
]


def run_cli(m, argv):
    """Run confalg.cli.main in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_op(m, name, argv, seed, pin):
    if seed is not None:
        argv = argv + ["--seed", str(seed)]

    def call():
        return run_cli(m, argv)

    def check(result):
        code, text = result
        if code != 0:
            return False
        if seed is None:
            return digest(text) == pin
        report = json.loads(text)
        return report["ok"] is True and report["seed"] == seed and report["samples"] > 0

    return Op(name, call, check)


class CliWorkload:
    def setup(self, m):
        self.m = m
        self.pins = load_pins()["cli"]
        for name in CLI_SPECS:
            m.specfile.load_spec(_spec(name))

    def warmup(self):
        return [_cli_op(self.m, "table", CLI_COMMANDS[0][1], None, self.pins["table"])]

    def cycles(self, seed):
        rng = random.Random(seed)
        while True:
            ops = [
                _cli_op(self.m, name, argv, _seed32(rng), None)
                if seeded
                else _cli_op(self.m, name, argv, None, self.pins[name])
                for name, argv, seeded in CLI_COMMANDS
            ]
            rng.shuffle(ops)
            yield ops


# --- structure: elimination-heavy structural calls ------------------------

IDEAL_DEGREES = (4, 5, 6)
CURRENT_DEGREES = (2, 4, 6)
UNITS = [(1, 1), (1, 2), (2, 1), (2, 2)]
GK_GENERATORS = ["L0_e11", "L0_e22", "L1_e12", "L1_e21"]
GK_RMAX = 12


def _nonzero(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))


def _commutator(u, v):
    return u.mul(v).sub(v.mul(u))


class StructureWorkload:
    def setup(self, m):
        self.m = m
        self.pins = load_pins()["structure"]
        alg = m.algebra
        mp = alg.MatrixPolyAlgebra(2)
        self.mp = mp
        self.cp = m.constructions.make_current(mp)
        self.c2 = m.constructions.make_cend(2)
        m2 = alg.MatrixAlgebra(2)
        self.m2 = m2
        self.cm2 = m.constructions.make_current(m2)
        self.borel = alg.Subalgebra(
            m2,
            [m2.basis_element((1, 1)), m2.basis_element((1, 2)), m2.basis_element((2, 2))],
            unital=True,
            degree=0,
        )
        # criterion 6's carriers: the x-shifted one and the full one
        spanning = [mp.one()]
        for k in range(1, 7):
            for i, j in UNITS:
                spanning.append(mp.basis_element((k, i, j)))
        self.shifted = alg.Subalgebra(mp, spanning, unital=True, degree=6)
        self.full = alg.Subalgebra(
            mp, [mp.basis_element(k) for k in mp.basis_upto(6)], unital=True, degree=6
        )
        # upper triangular carriers over Q[x] for the seeded nilpotency checks
        self.upper = {}
        for d in (1, 2, 3):
            self.upper[d] = alg.Subalgebra(
                mp,
                [mp.basis_element((k, i, j)) for k in range(d + 1) for i, j in ((1, 1), (1, 2), (2, 2))],
                unital=True,
                degree=d,
            )
        for sub in [self.borel, self.shifted, self.full, *self.upper.values()]:
            sub.check_closure()
        self.ideal_gen = mp.parse_element({"x*e11": "1", "x*e22": "1"})
        self.e12 = mp.parse_element({"e12": "1"})

    def warmup(self):
        return [
            self._ideal_fixed(3),
            self._current_fixed(self.full, 2, True),
            self._unital_fixed(),
        ]

    # fixed criterion instances, checked against pinned values

    def _ideal_fixed(self, degree):
        m, cp, g = self.m, self.cp, self.ideal_gen
        pin = self.pins["ideal_dims"][str(degree)]

        def call():
            pair = m.structure.ideal_lift(cp, [g], degree=degree)
            return pair, m.structure.ideal_restrict(cp, pair.conf_span)

        def check(r):
            pair, back = r
            return (
                back == pair.base_span
                and len(pair.base_span) == pin
                and pair.delta_stable
                and pair.two_sided
            )

        return Op("ideal:fixed", call, check)

    def _current_fixed(self, sub, degree, expected):
        m, a = self.m, self.e12

        def call():
            return m.structure.is_current(sub, a, degree)

        def check(v):
            if expected:
                return v.current is True and v.witness == a
            return v.current is False and v.witness is None

        return Op("is_current:fixed", call, check)

    def _unital_fixed(self):
        m, c2 = self.m, self.c2
        pin = self.pins["unital_split_cend2_L0_deg8"]

        def call():
            return m.structure.unital_split(c2, c2.named_element("L0"), degree=8)

        return Op("unital_split:fixed", call, lambda r: r == pin)

    def _gk_fixed(self):
        m, c2 = self.m, self.c2
        pin = self.pins["gk_cend2"]

        def call():
            gens = [c2.named_element(n) for n in GK_GENERATORS]
            return m.growth.gk_profile(c2, gens, rmax=GK_RMAX)

        def check(p):
            return p.ranks == pin["ranks"] and p.classification == pin["classification"]

        return Op("gk:fixed", call, check)

    def _nilpotency_fixed(self):
        m, cm2, borel = self.m, self.cm2, self.borel
        e12 = self.m2.parse_element({"e12": "1"})

        def call():
            return m.structure.nilpotency_check(cm2, [e12], degree=0, within=borel)

        def check(r):
            return r["base_index"] == 2 and r["conformal_index"] == 2 and r["agree"] is True

        return Op("nilpotency:fixed", call, check)

    # seeded instances, each checked by its own certificate

    def _ideal_seeded(self, rng, degree):
        m, cp = self.m, self.cp
        units = rng.sample(UNITS, 2)
        g = self.m.algebra.Element(self.mp, {(1,) + u: _nonzero(rng) for u in units})

        def call():
            pair = m.structure.ideal_lift(cp, [g], degree=degree)
            return pair, m.structure.ideal_restrict(cp, pair.conf_span)

        def check(r):
            pair, back = r
            return back == pair.base_span and len(pair.base_span) > 0

        return Op("ideal:seeded", call, check)

    def _current_seeded(self, rng, sub, degree):
        """Target a random combination of the slice's spanning elements, so
        a witness exists; its commutators must equal the target's."""
        m = self.m
        vs = sub.span_upto(degree)
        picked = rng.sample(range(len(vs)), 3)
        a = vs[picked[0]].scale(_nonzero(rng))
        for i in picked[1:]:
            a = a.add(vs[i].scale(_nonzero(rng)))

        def call():
            return m.structure.is_current(sub, a, degree)

        def check(v):
            if not v.current or v.witness is None:
                return False
            return all(_commutator(v.witness, u) == _commutator(a, u) for u in vs)

        return Op("is_current:seeded", call, check)

    def _unital_seeded(self, rng):
        """A rank-one idempotent E = e_ii + c e_ij: its order-0 action has
        image rank 2(d+1) on the degree-d window of cend(2)."""
        m, c2 = self.m, self.c2
        degree = rng.randint(4, 8)
        i = rng.choice((1, 2))
        j = 3 - i
        E = self.m.algebra.Element(
            c2.base, {(0, i, i): Fraction(1), (0, i, j): _nonzero(rng)}
        )
        e = c2.tilde(E)

        def call():
            return m.structure.unital_split(c2, e, degree=degree)

        def check(r):
            module = 4 * (degree + 1)
            return (
                r["module_rank"] == module
                and r["image_rank"] == 2 * (degree + 1)
                and r["image_rank"] + r["kernel_rank"] == module
                and r["identity_certified"] is False
            )

        return Op("unital_split:seeded", call, check)

    def _nilpotency_seeded(self, rng):
        """A strictly upper triangular generator inside the upper triangular
        carrier over Q[x] squares to zero on both sides of the transfer."""
        m, cp = self.m, self.cp
        d = rng.choice((1, 2, 3))
        k = rng.randint(0, d)
        g = self.m.algebra.Element(self.mp, {(k, 1, 2): _nonzero(rng)})
        sub = self.upper[d]

        def call():
            return m.structure.nilpotency_check(cp, [g], degree=d, within=sub)

        def check(r):
            return r["base_index"] == 2 and r["conformal_index"] == 2 and r["agree"] is True

        return Op("nilpotency:seeded", call, check)

    def cycles(self, seed):
        rng = random.Random(seed)
        n = 0
        while True:
            degree = IDEAL_DEGREES[n % 3]
            cdeg = CURRENT_DEGREES[n % 3]
            ops = [
                self._ideal_fixed(degree),
                self._ideal_seeded(rng, IDEAL_DEGREES[(n + 1) % 3]),
                self._current_fixed(self.shifted, cdeg, False),
                self._current_fixed(self.full, cdeg, True),
                self._current_seeded(rng, self.full if n % 2 else self.shifted, cdeg),
                self._unital_fixed(),
                self._unital_seeded(rng),
                self._gk_fixed(),
                self._nilpotency_fixed(),
                self._nilpotency_seeded(rng),
            ]
            rng.shuffle(ops)
            yield ops
            n += 1


WORKLOADS = {
    "oracle": OracleWorkload,
    "cli": CliWorkload,
    "structure": StructureWorkload,
}
