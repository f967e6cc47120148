"""The three workloads: seeded inputs, program-side construction, questions
and the oracle check of every answer.

A workload is a closed loop with one caller: the loop sends the next
question only when the previous one has returned.  Questions come in decks;
deck k of a seed is a fixed function of (workload, seed, k), and every deck
has the same composition, with sizes drawn by stratified sampling, so runs
on different seeds measure the same mix of work on different inputs.

The program is reached only through its public functions, looked up on the
``cutpoint`` package (or ``cutpoint.cli``) at call time so that the traced
run sees every call.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import gen
import oracles as orc

#: reason recorded for the one failure the baseline is known to have: the
#: Chomsky verdict factors by trial division bounded at 10^6 and refuses a
#: number with a larger prime factor (exit code 2).
KNOWN_DEFECT = "known defect: FactorBoundError, trial division bounded at 10^6"


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def build_machine(cp, m: dict):
    """Program object for a machine given as benchmark data."""
    def scal(x):
        return cp.GaussianRational(*x) if isinstance(x, tuple) else Fraction(x)

    def mat(rows):
        return cp.Matrix([[scal(x) for x in row] for row in rows])

    n, letters = m["n"], m["letters"]
    alphabet = tuple(letters)
    if m["model"] == "qfa":
        init = m["initial"] if isinstance(m["initial"], int) else mat(m["initial"])
        trans = {s: [mat(e) for e in es] for s, es in letters.items()}
        return cp.Qfa(n, alphabet, trans, init, frozenset(m["final"]))
    trans = {s: mat(a) for s, a in letters.items()}
    init = cp.basis_state(n, m["initial"])
    if m["model"] == "mcqfa":
        return cp.Mcqfa(n, alphabet, trans, init, frozenset(m["final"]))
    cls = cp.Pfa if m["model"] == "pfa" else cp.Gfa
    return cls(n, alphabet, trans, init, mat([m["final"]]))


def rotation_data(m: int, n: int, model: str) -> dict:
    c, s = gen.triple_cs(m, n)
    z, o = Fraction(0), Fraction(1)
    final = [o, z] if model == "gfa" else [1]
    return {"model": model, "n": 2, "letters": {"a": [[c, -s], [s, c]]},
            "initial": 1, "final": final}


def _first_hit_cutpoints(rng, m: int, n: int, target: int):
    """Cutpoints lo < hi around cos(target theta) that no earlier cos(k theta)
    falls between, found in binary64; the exact oracle confirms the witness."""
    theta = math.atan2(2 * m * n, m * m - n * n)
    while True:
        c = math.cos(target * theta)
        gap = min(abs(math.cos(k * theta) - c) for k in range(target))
        if gap > 1e-9:
            eps = gap * (0.2 + 0.2 * rng.random())
            return Fraction(c - eps), Fraction(c + eps), target
        target += 1


class Workload:
    name = ""
    needs_cli = False
    #: decks the traced run covers; fixed so its counts repeat exactly
    trace_decks = 1

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self._oracles = {}
        self.inputs(_rng(self.name, seed, "pool"))

    def deck(self, k: int) -> list:
        rng = _rng(self.name, self.seed, "deck", k)
        qs = self.questions(rng, k)
        rng.shuffle(qs)
        return qs

    def close(self):
        pass

    def linear(self, key, machine) -> orc.LinearOracle:
        """The oracle of a machine, built on first use: checks run outside
        the timed region, and set-up runs never build one."""
        if key not in self._oracles:
            self._oracles[key] = orc.LinearOracle(machine)
        return self._oracles[key]

    def finish(self) -> list[str]:
        """Checks run after the timed loop; returns failure reasons."""
        return []


class UnaryLong(Workload):
    """Exact value sequences a^0..a^N of unary machines, N log-uniform."""

    name = "unary-long"
    trace_decks = 1

    def inputs(self, rng):
        self.lo, self.hi = (20, 120) if self.small else (50, 2000)
        machines = []
        for m, n in [(2, 1), (3, 2), (4, 1), (8, 3)]:
            machines.append(("rot", (m, n), rotation_data(m, n, "gfa")))
        for m, n in [(2, 1), (8, 3)]:
            machines.append(("rotq", (m, n), rotation_data(m, n, "mcqfa")))
        for q in (4, 10, 16):
            p = rng.choice([p for p in range(1, q // 2 + 1) if math.gcd(p, q) == 1])
            machines.append(("px", Fraction(p, q), gen.px_machine(Fraction(p, q))))
        for triple in [(2, 1), (3, 2)]:
            machines.append(("qfa", None, gen.random_qfa(rng, 2, ("a",), triples=[triple])))
        self.machines = machines

    def build(self, cp):
        self.cp = cp
        auts = []
        for kind, param, data in self.machines:
            if kind in ("rot", "rotq"):
                model = "gfa" if kind == "rot" else "mcqfa"
                auts.append(cp.rotation_automaton(cp.PythTriple(*param), model))
            elif kind == "px":
                auts.append(cp.three_state_pfa(param))
            else:
                auts.append(build_machine(cp, data))
        self.auts = auts

    def _n_scale(self, i):
        # a QFA step costs four 2x2 products and a sum; keep its sequences shorter
        return 0.1 if self.machines[i][0] == "qfa" else 1.0

    def questions(self, rng, k):
        # Machine i always takes stratum i of each third of the size range.
        # The cost of a question grows faster than N^2 and differs between
        # machines by a factor of four at the same N, so an assignment that
        # rotated with k made some decks twice as slow as others, and a run's
        # throughput depended on which decks it reached.
        mcount = len(self.machines)
        sizes = gen.stratified(rng, 3 * mcount, self.lo, self.hi)
        qs = []
        for i in range(mcount):
            for s in range(3):
                n = sizes[i + mcount * s]
                qs.append(("values", i, max(1, round(n * self._n_scale(i)))))
        for i, n in zip([0, 1, 4], gen.stratified(rng, 3, self.lo, self.hi)):
            qs.append(("aperiodic", i, round(n)))  # rotations: every value is new
        for i, target in enumerate(gen.stratified(rng, 3, self.lo // 2, self.hi * 3 // 4)):
            lo, hi, t = _first_hit_cutpoints(rng, *self.machines[i][1], round(target))
            qs.append(("separate", i, lo, hi, t + 20))
        return qs

    def ask(self, q):
        cp = self.cp
        if q[0] == "values":
            return list(self.auts[q[1]].unary_values(q[2]))
        if q[0] == "aperiodic":
            return cp.aperiodicity_check(self.auts[q[1]], q[2])
        _, i, lo, hi, limit = q
        aut = self.auts[i]
        return cp.separate(aut, cp.CutpointSpec(lo), aut, cp.CutpointSpec(hi), limit)

    def oracle(self, i, limit):
        kind, param, data = self.machines[i]
        if kind in ("rot", "rotq"):
            pairs = orc.rotation_pairs(*param, squared=kind == "rotq")
            return (next(pairs) for _ in range(limit + 1))
        return self.linear(i, data).unary(limit)

    def check(self, q, ans):
        if q[0] == "values":
            if len(ans) != q[2] + 1:
                return "values: wrong length"
            if not all(orc.equal(v, *p) for v, p in zip(ans, self.oracle(q[1], q[2]))):
                return "values: differs from oracle"
            return None
        if q[0] == "aperiodic":
            seen = {Fraction(*p) for p in self.oracle(q[1], q[2])}
            return None if ans == (len(seen) == q[2] + 1) else "aperiodicity: wrong verdict"
        _, i, lo, hi, limit = q
        for m, (num, den) in enumerate(self.oracle(i, limit)):
            a, b = orc.above(num, den, lo), orc.above(num, den, hi)
            if a != b:
                ok = (ans is not None and ans.m == m and orc.equal(ans.value_a, num, den)
                      and orc.equal(ans.value_b, num, den)
                      and (ans.member_a, ans.member_b) == (a, b))
                return None if ok else "separate: wrong witness"
        return None if ans is None else "separate: witness where none exists"


class ParikhEnum(Workload):
    """Every word up to length L against seeded one-state machines."""

    name = "parikh-enum"
    trace_decks = 1
    # (alphabet, max length, questions per deck): 20 questions whose word
    # counts put the median inside the {a,b} cluster and the 90th
    # percentile inside the {a,b,c} <= 7 cluster, away from cluster edges
    MIX = [("ab", 10, 6), ("abc", 6, 5), ("abc", 7, 4), ("abc", 8, 1), ("abcd", 5, 4)]
    SMALL_MIX = [("ab", 5, 2), ("abc", 3, 2), ("abcd", 3, 1)]
    SPECS_PER_ALPHABET = 8

    def inputs(self, rng):
        self.mix = self.SMALL_MIX if self.small else self.MIX
        self.words = {}
        for letters, max_len, _ in self.mix:
            classes = orc.parikh_classes(letters, max_len)
            index = {c: i for i, c in enumerate(classes)}
            words, cls = [], []
            for length in range(max_len + 1):
                for w in product(letters, repeat=length):
                    words.append("".join(w))
                    cls.append(index[tuple(w.count(a) for a in letters)])
            short = sum(1 for w in words if len(w) <= max_len - 2)
            self.words[letters, max_len] = (words, cls, classes, short)
        self.specs = {letters: [self._spec(rng, letters, slot) for slot in range(self.SPECS_PER_ALPHABET)]
                      for letters in {m[0] for m in self.mix}}

    @staticmethod
    def _spec(rng, letters, slot: int):
        """One-state machine data for pool slot ``slot`` of 8.

        Membership cost depends on the descriptor form, so the slot fixes it:
        six strict machines whose cutpoint sign gives the intersection form
        (slots 0, 1, 4) or the union form (2, 3, 5), with both directions,
        and two inclusive ones with a reachable cutpoint; slots 2 and 5 have
        a zero number.  Magnitudes and signs are random."""
        numbers = {}
        for a in letters:
            v = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            numbers[a] = -v if rng.random() < 0.35 else v
        if slot % 8 in (2, 5):
            numbers[rng.choice(letters)] = Fraction(0)
        direction = "less" if slot % 2 == 0 else "greater"
        if slot % 8 >= 6:
            cut = Fraction(1)
            for a in letters:
                cut *= numbers[a] ** rng.randint(0, 2)
            return numbers, cut, direction, "inclusive"
        cut = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        # intersection form: a cutpoint <= 0 for "less", >= 0 for "greater"
        intersection = slot % 8 in (0, 1, 4)
        if intersection == (direction == "less"):
            cut = -cut
        return numbers, cut, direction, "strict"

    def build(self, cp):
        self.cp = cp
        self.built = {letters: [cp.OneStateGfaSpec(*s) for s in specs]
                      for letters, specs in self.specs.items()}

    def questions(self, rng, k):
        qs = []
        for letters, max_len, count in self.mix:
            for t in range(count):
                qs.append((letters, max_len, (t + k) % self.SPECS_PER_ALPHABET))
        return qs

    def ask(self, q):
        cp = self.cp
        letters, max_len, j = q
        spec = self.built[letters][j]
        words, _, _, short = self.words[letters, max_len]
        d = cp.decompose_one_state(spec)
        via_desc = bytes(cp.desc_member(d, w) for w in words)
        via_spec = bytes(cp.one_state_accepts(spec, w) for w in words)
        back = cp.build_one_state(d)
        round_trip = bytes(cp.one_state_accepts(back, w) for w in words[:short])
        return via_desc, via_spec, round_trip

    def check(self, q, ans):
        letters, max_len, j = q
        numbers, cut, direction, mode = self.specs[letters][j]
        words, cls, classes, short = self.words[letters, max_len]
        bits = [orc.one_state_member(numbers, cut, direction, mode, dict(zip(letters, c)))
                for c in classes]
        expected = bytes(bits[c] for c in cls)
        via_desc, via_spec, round_trip = ans
        if via_desc != expected:
            return "desc_member differs from direct product"
        if via_spec != expected:
            return "one_state_accepts differs from direct product"
        if round_trip != expected[:short]:
            return "build_one_state round trip differs from direct product"
        return None


def _fmt(x: Fraction) -> str:
    return str(Fraction(x))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randint(lo, hi)
        if _is_prime(n):
            return n


def _from_exponents(v: dict) -> Fraction:
    r = Fraction(1)
    for p, e in v.items():
        r *= Fraction(p) ** e
    return r


class CliSession(Workload):
    """In-process ``cli.run`` over documents written during set-up."""

    name = "cli-session"
    needs_cli = True
    trace_decks = 1
    PFA_STRATA = 8
    VARIANTS = 4

    def inputs(self, rng):
        small = self.small
        # 2-state PFAs with x = y = 1/u, u log-uniform in [2, 1000]: one per
        # stratum in each deck, from VARIANTS documents per stratum jittered by
        # 2% of its width.  The classify cost grows as u^2 and these questions
        # are the slowest of a deck, so a wider jitter would let the seed
        # move the 90th percentile and the throughput.
        strata = self.PFA_STRATA
        width = math.log(30 if small else 1000) - math.log(2)
        self.pfa_cut = {}
        docs = {}
        for j in range(strata):
            for v in range(self.VARIANTS):
                t = (j + 0.5 + 0.04 * (rng.random() - 0.5)) * width / strata
                u = round(2 * math.exp(t))
                docs[f"pfa2_{j}_{v}"] = gen.two_state_pfa(Fraction(1, u), Fraction(1, u))
                self.pfa_cut[j, v] = Fraction(1, 2) - Fraction(1, rng.randint(800_000, 1_200_000))
        # dense exact QFAs, n = 3..7
        self.qfa_keys = [f"qfa{n}" for n in ([3, 4] if small else [3, 4, 5, 6, 7])]
        for key in self.qfa_keys:
            docs[key] = gen.random_qfa(rng, int(key[3]), ("a", "b"), dense=True)
        docs["rot21"] = rotation_data(2, 1, "gfa")
        docs["rot41"] = rotation_data(4, 1, "gfa")
        docs["rotq21"] = rotation_data(2, 1, "mcqfa")
        q = rng.choice([5, 7, 9, 11])
        self.px_x = Fraction(rng.choice([p for p in range(1, q // 2 + 1) if math.gcd(p, q) == 1]), q)
        docs["px"] = gen.px_machine(self.px_x)
        docs["gfa"] = gen.random_gfa(rng, 3, ("a", "b"))
        docs["pfa"] = gen.random_pfa(rng, 3, ("a", "b"))
        docs["mcqfa"] = gen.random_mcqfa(rng, 3, ("a", "b"), True)
        bad = gen.random_pfa(rng, 2, ("a", "b"))
        bad["letters"]["a"][0][0] += Fraction(1, 7)
        docs["invalid"] = bad
        self.docs = docs

    def build(self, cp):
        import cutpoint.cli
        self.cli = cutpoint.cli
        documents = cutpoint.documents
        root = Path(__file__).resolve().parent / "out"
        root.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="docs-", dir=root))
        self.paths = {}
        for key, data in self.docs.items():
            if key.startswith("rot"):
                param = cp.PythTriple(int(key[-2]), int(key[-1]))
                aut = cp.rotation_automaton(param, "mcqfa" if key.startswith("rotq") else "gfa")
            elif key == "px":
                aut = cp.three_state_pfa(self.px_x)
            else:
                aut = build_machine(cp, data)
            path = self.dir / f"{key}.json"
            path.write_text(json.dumps(documents.serialize_automaton(aut)))
            self.paths[key] = str(path)
        self.chomsky_seen = []
        self.verdicts = {}

    def close(self):
        if getattr(self, "dir", None) is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    # question builders: each returns (argv, check data)

    def _chomsky(self, rng, kind: str, big: bool):
        small_primes = [2, 3, 5, 7, 11, 13]
        if kind == "regular":
            vecs = [{p: rng.randint(1, 2) for p in rng.sample(small_primes, 2)} for _ in range(3)]
            if big:
                vecs[0][_prime_in(rng, 1_000_003, 5_000_000)] = 1
            if rng.random() < 0.5:
                vecs = [{p: -e for p, e in v.items()} for v in vecs]
        elif kind == "cf":
            if big:  # a semiprime near 10^12 whose factors lie just under the bound
                base = {_prime_in(rng, 950_000, 999_000): 1, _prime_in(rng, 950_000, 999_000): 1}
            else:
                base = {p: rng.choice([-2, -1, 1, 2]) for p in rng.sample(small_primes, 2)}
            vecs = [{p: e * s for p, e in base.items()} for s in (rng.randint(1, 2), -rng.randint(1, 2))]
        else:
            p, q = rng.sample(small_primes, 2)
            if big:
                p = _prime_in(rng, 1_000_003, 5_000_000)
            vecs = [{p: 1}, {q: -1}]
        numbers = {}
        for letter, v in zip("abc", vecs):
            r = _from_exponents(v)
            numbers[letter] = -r if rng.random() < 0.3 else r
        if len(numbers) == 2 and rng.random() < 0.5:
            numbers["c"] = Fraction(rng.choice([0, 1, -1]))
        expected = orc.log_verdict(vecs)
        # factoring is needed only when the logs have mixed signs, and then
        # refused only for a prime factor above the bound
        refusal = big and kind == "noncf"
        cut = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        argv = ["chomsky", "--numbers"] + [f"{a}={_fmt(v)}" for a, v in numbers.items()]
        argv += [f"--cutpoint={_fmt(cut)}", "--direction", rng.choice(["lt", "gt"]), "--json"]
        return argv, ("chomsky", expected, refusal, numbers)

    def _decompose(self, rng):
        numbers, cut, direction, mode = ParikhEnum._spec(rng, "abc", rng.randrange(8))
        argv = ["decompose-1gfa", "--numbers"] + [f"{a}={_fmt(v)}" for a, v in numbers.items()]
        argv += [f"--cutpoint={_fmt(cut)}", "--direction", "lt" if direction == "less" else "gt"]
        if mode == "inclusive":
            argv.append("--inclusive")
        return argv + ["--json"], ("decompose", numbers, cut, direction, mode)

    def questions(self, rng, k):
        p, qs = self.paths, []
        small = self.small
        for key in self.qfa_keys:
            w = "".join(rng.choice("ab") for _ in range(3))
            qs.append((["eval", p[key], "--word", w, "--json"], ("eval", key, w)))
        for key, n in zip(["gfa", "pfa", "mcqfa"], gen.stratified(rng, 3, 4, 16.99, log=False)):
            w = "".join(rng.choice("ab") for _ in range(int(n)))
            qs.append((["eval", p[key], "--word", w, "--json"], ("eval", key, w)))
        for key, (lo, hi) in [("rot21", (100, 600)), ("px", (100, 400))]:
            n = round(gen.stratified(rng, 1, lo // (5 if small else 1), hi // (5 if small else 1))[0])
            qs.append((["eval", p[key], "--length", str(n), "--json"], ("eval", key, "a" * n)))
        for j in range(self.PFA_STRATA):
            key, cut = f"pfa2_{j}_{k % self.VARIANTS}", self.pfa_cut[j, k % self.VARIANTS]
            qs.append((["classify-2pfa", p[key], f"--cutpoint={_fmt(cut)}", "--json"],
                       ("classify", key, cut)))
        for kind in ("regular", "cf", "noncf"):
            for big in (False, True):
                qs.append(self._chomsky(rng, kind, big))
        qs.append(self._decompose(rng))
        qs.append(self._decompose(rng))
        for target in gen.stratified(rng, 2, 40, 400 if not small else 60):
            lo, hi, t = _first_hit_cutpoints(rng, 2, 1, round(target))
            qs.append((["separate", p["rot21"], p["rot21"], f"--cutpoint-a={_fmt(lo)}",
                        f"--cutpoint-b={_fmt(hi)}", "--max", str(t + 10), "--json"],
                       ("separate", "rot21", lo, hi, t + 10)))
        n = rng.randint(100, 300) // (5 if small else 1)
        qs.append((["separate", p["rot41"], p["rot41"], "--cutpoint-a=2", "--cutpoint-b=3",
                    "--max", str(n), "--json"], ("separate", "rot41", Fraction(2), Fraction(3), n)))
        n = rng.randint(100, 300) // (5 if small else 1)
        cut = 1 / (3 * self.px_x + 1)
        qs.append((["enum", p["px"], f"--cutpoint={_fmt(cut)}", "--max", str(n), "--json"],
                   ("enum", "px", cut, n)))
        n = rng.randint(100, 300) // (5 if small else 1)
        qs.append((["csv", p["rot41"], "--max", str(n)], ("csv", "rot41", n)))
        triple = rng.choice(gen.TRIPLES[:4])
        bins = rng.randint(20, 60)
        qs.append((["density", "--triple", "%d,%d" % triple, "--bins", str(bins),
                    "--max", "20000", "--json"], ("density", triple, bins, 20000)))
        cut = Fraction(rng.randint(1, 9), 10)
        qs.append((["transform", "exclusive-to-zero", p["rotq21"], f"--cutpoint={_fmt(cut)}",
                    "--json"], ("transform", "rotq21", cut)))
        family = ["rotation", "px", "modn"][k % 3]
        if family == "rotation":
            triple = rng.choice(gen.TRIPLES)
            args = ["--triple", "%d,%d" % triple]
        elif family == "px":
            triple = Fraction(rng.randint(1, 5), 10)
            args = [f"--x={_fmt(triple)}"]
        else:
            triple = rng.randint(2, 12)
            args = ["--n", str(triple)]
        qs.append((["construct", family] + args + ["--json"], ("construct", family, triple)))
        qs.append((["eval", p["invalid"], "--word", "ab"], ("invalid",)))
        return qs

    def ask(self, q):
        return self.cli.run(q[0])

    def check(self, q, out):
        spec = q[1]
        kind = spec[0]
        code, data = out.exit_code, out.data
        if kind == "invalid":
            return None if code == 1 else f"invalid document: exit {code}, expected 1"
        if kind == "chomsky":
            _, expected, refusal, numbers = spec
            self.chomsky_seen.append((numbers, expected))
            if code == 2 and refusal and "exceeds trial-division bound" in out.report:
                return KNOWN_DEFECT
            if code != 0:
                return f"chomsky: exit {code}"
            return None if data["verdict"] == expected else "chomsky: wrong verdict"
        if kind == "separate":
            _, key, lo, hi, limit = spec
            for m, (num, den) in enumerate(self.linear(key, self.docs[key]).unary(limit)):
                a, b = orc.above(num, den, lo), orc.above(num, den, hi)
                if a != b:
                    w = data.get("witness") if code == 0 else None
                    ok = (w is not None and w["m"] == m
                          and orc.equal(Fraction(w["value_a_exact"]), num, den)
                          and (w["member_a"], w["member_b"]) == (a, b))
                    return None if ok else "separate: wrong witness"
            return None if code == 3 else f"separate: exit {code}, expected 3"
        if code != 0:
            return f"{kind}: exit {code}"
        if kind == "eval":
            _, key, word = spec
            got = data["value_exact"]
            ok = got is not None and orc.equal(Fraction(got), *self.linear(key, self.docs[key]).value(word))
            return None if ok else "eval: value differs from oracle"
        if kind == "classify":
            _, key, cut = spec
            # each document variant recurs every VARIANTS decks; its verdict is kept
            name = data["language"]
            if (key, name) not in self.verdicts:
                oracle = self.linear(key, self.docs[key])
                self.verdicts[key, name] = orc.check_two_state_name(name, oracle, cut)
            return None if self.verdicts[key, name] else "classify-2pfa: name disagrees with brute force"
        if kind == "decompose":
            _, numbers, cut, direction, mode = spec
            for c in orc.parikh_classes("abc", 6):
                counts = dict(zip("abc", c))
                if orc.descriptor_member(data, counts) != orc.one_state_member(
                        numbers, cut, direction, mode, counts):
                    return "decompose-1gfa: descriptor differs from direct product"
            return None
        if kind == "enum":
            _, key, cut, n = spec
            bits = "".join("1" if orc.above(num, den, cut) else "0"
                           for num, den in self.linear(key, self.docs[key]).unary(n))
            return None if data["bits"] == bits else "enum: bits differ from oracle"
        if kind == "csv":
            _, key, n = spec
            rows = out.report.splitlines()[1:]
            if len(rows) != n + 1:
                return "csv: wrong row count"
            for row, (num, den) in zip(rows, self.linear(key, self.docs[key]).unary(n)):
                if not orc.equal(Fraction(row.split(",")[1]), num, den):
                    return "csv: value differs from oracle"
            return None
        if kind == "density":
            _, triple, bins, limit = spec
            ok = data["first_hit"] == orc.density_first_hits(*triple, bins, limit)
            return None if ok else "density: first hits differ from recurrence"
        if kind == "transform":
            _, key, cut = spec
            doc = data["machine"]
            if doc["states"] != 5 or doc["final"] != [1]:
                return "transform: wrong shape"
            c2 = 1 / (cut * cut + 1)
            for word in ("", "a", "aa", "aaa"):
                f = Fraction(*self.linear(key, self.docs[key]).value(word))
                exact = c2 / 2 * (f - cut) ** 2
                if abs(orc.float_mcqfa_value(doc, word) - float(exact)) > 1e-9:
                    return "transform: value differs from exact formula"
            return None
        if kind == "construct":
            _, family, param = spec
            got = data["transitions"]["a"]
            if family == "modn":
                t = math.pi / param
                want = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
                ok = all(abs(x - y) < 1e-12 for r, e in zip(got, want) for x, y in zip(r, e))
            else:
                machine = rotation_data(*param, "gfa") if family == "rotation" else gen.px_machine(param)
                ok = [[Fraction(x) for x in r] for r in got] == machine["letters"]["a"]
            return None if ok else "construct: wrong matrix"
        return f"unknown question kind {kind}"

    def finish(self):
        """Cross-check the by-construction Chomsky verdicts with sympy, when
        it is installed."""
        reasons = []
        for numbers, expected in self.chomsky_seen:
            vecs = [orc.sympy_exponents(abs(v)) for v in numbers.values() if v != 0]
            if any(v is None for v in vecs):
                return []
            if orc.log_verdict(vecs) != expected:
                reasons.append("oracle: sympy factorisation disagrees with construction")
        return reasons


WORKLOADS = {w.name: w for w in (UnaryLong, ParikhEnum, CliSession)}
