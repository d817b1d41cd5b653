"""The three seeded workloads.

Each workload hands out blocks of operations: ``block(seed, k)`` is the k-th
block of the stream for that seed, and the same (seed, k) always gives the
same block.  A block has a fixed composition, so blocks cost about the same
and a run's figures move little from seed to seed; only the values drawn
inside each stratum, and the order, depend on the seed.

``execute(chevring, op)`` performs one operation through the package's public
modules, looking each function up at call time so that a traced run sees the
wrapped versions.  ``check(op, result)`` returns None when the result is
right, REFUSED when the program declined the request for lack of resources,
or a message saying what is wrong.
"""

from __future__ import annotations

import json
import math
import random
import re
from itertools import combinations_with_replacement
from typing import NamedTuple

import reference as ref

REFUSED = "refused"

ORACLE_PRIMES = (3, 5, 7, 11, 13)


def _rng(workload: str, seed: int, k: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _series_mismatch(label: str, got, expected) -> str | None:
    got = list(got)
    return None if got == expected else f"{label}: got {got}, expected {expected}"


# -- coinvariants -----------------------------------------------------------


class Coinvariant(NamedTuple):
    weights: tuple[int, ...]
    l: int
    q: int


class Coinvariants:
    """Criterion-3-shaped coinvariant problems: every weight multiset of
    length 1-4 with entries 1-6, for every (l, r) with l in ORACLE_PRIMES and
    r dividing l - 1, with q a random residue of order r; cutoff 12."""

    name = "coinvariants"
    blocks_per_run = 1
    cutoff = 12
    weights = [
        w for k in range(1, 5) for w in combinations_with_replacement(range(1, 7), k)
    ]

    def block(self, seed: int, k: int) -> list[Coinvariant]:
        rng = _rng(self.name, seed, k)
        ops = [
            Coinvariant(w, l, rng.choice(qs))
            for l in ORACLE_PRIMES
            for _, qs in sorted(ref.residues_by_order(l).items())
            for w in self.weights
        ]
        rng.shuffle(ops)
        return ops

    def execute(self, chevring, op: Coinvariant):
        oracles = chevring.oracles
        problem = oracles.GradedActionProblem(weights=op.weights, l=op.l, q=op.q, cutoff=self.cutoff)
        brute = oracles.coinvariants_hilbert_bruteforce(problem)
        closed = oracles.coinvariants_hilbert_closedform(problem)
        return brute, closed

    def check(self, op: Coinvariant, result) -> str | None:
        brute, closed = result
        r = ref.order(op.q, op.l)
        expected = ref.free_series([w for w in op.weights if w % r == 0], self.cutoff)
        return _series_mismatch(f"{op} brute force", brute.coefficients, expected) or _series_mismatch(
            f"{op} closed form", closed.coefficients, expected
        )

    def monomials(self, op: Coinvariant) -> int:
        return ref.monomial_count(op.weights, self.cutoff)


# -- wreath invariants ------------------------------------------------------


class Invariant(NamedTuple):
    m: int
    cutoff: int
    l: int
    p: int
    q: int


def _prime_powers_by_order(l: int) -> dict[int, list[tuple[int, int]]]:
    """(p, q) with q = p^k < 5000 a prime power prime to l, by order mod l."""
    out: dict[int, list[tuple[int, int]]] = {}
    for p in range(2, 200):
        if not ref.is_prime(p) or p == l:
            continue
        q = p
        while q < 5000:
            out.setdefault(ref.order(q % l, l), []).append((p, q))
            q *= p
    return out


class Invariants:
    """Wreath-invariant instances.  For m = 3 and 4, every cutoff 8..12 with
    every l in ORACLE_PRIMES, r uniform over the divisors of l - 1 and q a
    real prime power of order r mod l: 50 instances, among which the median
    lies.  For m = 5, cutoffs 8, 9 and 10, with (l, r) drawn the same way,
    except that cutoff 10 always has l = 13 and r = 1, its slowest case (the
    invariant ring is largest).  m = 5 stops at cutoff 10 because one
    instance at cutoff 12 alone takes 5-8 s and 180 MB today.

    The composition is fixed so that blocks cost about the same whatever
    the seed: the median reads one of the many m = 4 instances, and p99
    reads the m = 5, cutoff 10 instance, the same kind of instance in every
    run instead of whichever cell drew r = 1 this time."""

    name = "invariants"
    blocks_per_run = 1
    cells = [(m, c, l) for m in (3, 4) for c in range(8, 13) for l in ORACLE_PRIMES]
    heavy = [(5, 8), (5, 9)]
    slowest = (5, 10, 13)

    def __init__(self):
        self._fields = {l: _prime_powers_by_order(l) for l in ORACLE_PRIMES}

    def block(self, seed: int, k: int) -> list[Invariant]:
        rng = _rng(self.name, seed, k)
        cells = self.cells + [(m, c, rng.choice(ORACLE_PRIMES)) for m, c in self.heavy]
        ops = []
        for m, cutoff, l in cells + [self.slowest]:
            by_order = self._fields[l]
            r = 1 if (m, cutoff, l) == self.slowest else rng.choice(sorted(by_order))
            p, q = rng.choice(by_order[r])
            ops.append(Invariant(m, cutoff, l, p, q))
        rng.shuffle(ops)
        return ops

    def execute(self, chevring, op: Invariant):
        oracles = chevring.oracles
        problem = oracles.GradedActionProblem(
            weights=(1,) * op.m, l=op.l, q=op.q, cutoff=op.cutoff, permutation=oracles.FULL_SYMMETRIC
        )
        brute = oracles.invariants_hilbert_bruteforce(problem)
        closed = oracles.invariants_hilbert_closedform(problem)
        report = oracles.verify_restricted_chern(op.m, chevring.arith.galois_params(op.p, op.q, op.l))
        return brute, closed, report

    def check(self, op: Invariant, result) -> str | None:
        brute, closed, report = result
        r = ref.order(op.q, op.l)
        expected = ref.free_series([i * r for i in range(1, op.m + 1)], op.cutoff)
        if not report.passed:
            return f"{op}: restricted Chern check failed: {report}"
        if dict(report.parameters).get("r") != r:
            return f"{op}: Chern report has r = {dict(report.parameters).get('r')}, expected {r}"
        return _series_mismatch(f"{op} brute force", brute.coefficients, expected) or _series_mismatch(
            f"{op} closed form", closed.coefficients, expected
        )

    def monomials(self, op: Invariant) -> int:
        return ref.monomial_count((1,) * op.m, op.cutoff)


# -- CLI queries ------------------------------------------------------------


class Query(NamedTuple):
    argv: tuple[str, ...]
    command: str
    fmt: str
    family: str
    rank: int
    p: int
    q: int
    l: int
    theory: str | None
    cutoff: int | None
    grading: str | None
    n: int | None


L_MAX, Q_MAX, RANK_MAX = 10**5, 10**6, 10**4
# Every (command, format) pair the CLI accepts for these commands.  Each
# cell of the 10 x 10 grid of (l, rank) deciles in a block gets one of each.
REQUEST_KINDS = (
    ("params", "text"), ("params", "json"),
    ("present", "text"), ("present", "json"), ("present", "latex"),
    ("series", "text"), ("series", "json"), ("series", "latex"),
    ("compare", "text"), ("compare", "json"),
)
GRID = 10
FORCED_L_EQUALS_P = 20  # requests per block whose q is a power of l
# CPython's default limit on the digits of an int converted to str.  A
# params request whose h has more digits dies with a ValueError today
# (ROADMAP item 2).  Every block holds exactly OVERSIZED such requests, the
# median count among free draws (43-61 in 150 of them), so the failures of a
# run do not depend on its seed.
INT_MAX_STR_DIGITS = 4300
OVERSIZED = 54
# The slowest requests are those with the largest q^r, and their time grows
# with its bit length, r log2 q: across ten seeds the 40th largest bit length
# of a run predicted its op_p99_ms with correlation 0.91.  So every block's
# tenth largest bit length lies within TAIL_TOLERANCE of TAIL_BITS, the
# median among free draws (IQR 697-829 kbit in 150 of them).
TAIL_BITS = 765_000
TAIL_TOLERANCE = 0.02


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [0, 1), shuffled:
    one coordinate of a Latin hypercube sample."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _balanced_against(rng: random.Random, u: list[float], g: int = 10) -> list[float]:
    """Latin-hypercube draws for a second coordinate that also put the same
    number of points into every cell of a g x g grid against u.  Joint
    extremes, such as a large rank with a small l, then turn up equally
    often in every block.  len(u) must be a multiple of g * g."""
    n = len(u)
    width = n // g
    pools = [rng.sample(range(width), width) for _ in range(g)]
    by_u = sorted(range(n), key=u.__getitem__)
    out = [0.0] * n
    for a in range(g):
        columns = [b for b in range(g) for _ in range(width // g)]
        rng.shuffle(columns)
        for i, b in zip(by_u[a * width : (a + 1) * width], columns):
            out[i] = (b * width + pools[b].pop() + rng.random()) / n
    return out


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _field(rng: random.Random, u: float) -> tuple[int, int]:
    """(p, q) with q near a log-uniform point up to Q_MAX: half primes, half
    higher prime powers."""
    v = _log_uniform(u, 2, Q_MAX)
    if rng.random() < 0.5:
        q = ref.next_prime(int(v))
        return q, q
    k = rng.randint(2, max(2, int(math.log2(v))))
    p = ref.next_prime(round(v ** (1 / k)))
    return p, p**k


def qr_bits(l: int, q: int) -> float:
    """Bit length of q^r - 1, r the order of q mod l; 0 when l divides q."""
    return 0.0 if q % l == 0 else ref.order(q, l) * math.log2(q)


def h_too_long(l: int, p: int, q: int) -> bool:
    """Whether h = (q^r - 1) / l^a, which a params request on (l, q) prints,
    has more than INT_MAX_STR_DIGITS decimal digits.  With l = p the request
    exits 2 before it computes h."""
    if l == p:
        return False
    r = ref.order(q, l)
    a, modulus = 1, l * l
    while pow(q, r, modulus) == 1:
        a, modulus = a + 1, modulus * l
    log10_h = r * math.log10(q) - a * math.log10(l)
    if abs(log10_h - INT_MAX_STR_DIGITS) > 1:
        return log10_h > INT_MAX_STR_DIGITS
    return (q**r - 1) // l**a >= 10**INT_MAX_STR_DIGITS


def oversized(op: Query) -> bool:
    """Whether op is a params request that prints an h too long for str."""
    return op.command == "params" and h_too_long(op.l, op.p, op.q)


def expected_exit(op: Query) -> int:
    """2 when a hypothesis of the request fails, else 0."""
    if op.l == op.p:
        return 2
    if op.theory == "chow" and op.l == 2:
        return 2
    if op.theory == "cobordism" and op.l in ref.TORSION.get(op.family, ()):
        return 2
    return 0


class Queries:
    """CLI requests (params, present, series, compare) in every format they
    accept, parsed by cli.parse_args and served by cli.run.  l, q and the
    rank are Latin-hypercube draws, log-uniform up to L_MAX, Q_MAX and
    RANK_MAX, with q and the rank each balanced against l.  Hypothesis
    violations (l = p, torsion primes, l = 2 for chow) are part of the mix
    and must exit 2.

    Two block statistics are held fixed, so that a run's failures and tail
    do not depend on its seed.  The (command, format) pairs are swapped
    between requests of the same grid cell until exactly OVERSIZED params
    requests have an h too long to print; swaps within a cell keep every
    balance above.  And a block is drawn again, from the next sub-seed,
    until its tenth largest q^r is within TAIL_TOLERANCE of TAIL_BITS.  A
    run takes four blocks, which averages the rest of the composition over
    4004 requests."""

    name = "queries"
    blocks_per_run = 4
    size = GRID * GRID * len(REQUEST_KINDS)  # plus the one request of _largest

    def block(self, seed: int, k: int) -> list[Query]:
        for attempt in range(1000):
            ops = self._draw(_rng(self.name, seed, f"{k}.{attempt}"))
            if ops is None:
                continue
            tail = sorted(qr_bits(op.l, op.q) for op in ops)[-10]
            if abs(tail / TAIL_BITS - 1) <= TAIL_TOLERANCE:
                return ops
        raise RuntimeError("no queries block met the composition targets")

    def _draw(self, rng: random.Random) -> list[Query] | None:
        """One block, or None when no swap of pairs gives OVERSIZED."""
        ul = _strata(rng, self.size)
        uq, ur = _balanced_against(rng, ul, GRID), _balanced_against(rng, ul, GRID)
        cells: dict[tuple[int, int], list[int]] = {}
        for i in range(self.size):
            cells.setdefault((int(ul[i] * GRID), int(ur[i] * GRID)), []).append(i)
        kinds: list[tuple[str, str]] = [("", "")] * self.size
        for members in cells.values():
            for i, kind in zip(members, rng.sample(REQUEST_KINDS, len(REQUEST_KINDS))):
                kinds[i] = kind
        forced = set(rng.sample(range(self.size), FORCED_L_EQUALS_P))
        fields = []
        for i in range(self.size):
            l = ref.next_prime(int(_log_uniform(ul[i], 2, L_MAX)))
            p, q = _field(rng, uq[i])
            if i in forced:
                p, q = l, l ** rng.choice((1, 2))
            fields.append((l, p, q, max(1, int(_log_uniform(ur[i], 1, RANK_MAX)))))
        if not self._fix_oversized(rng, cells, kinds, [h_too_long(*f[:3]) for f in fields]):
            return None
        ops = [self._request(rng, *kind, *f) for kind, f in zip(kinds, fields)]
        ops.insert(rng.randrange(len(ops) + 1), self._largest(rng))
        return ops

    @staticmethod
    def _fix_oversized(rng, cells, kinds, too_long) -> bool:
        """Swap pairs within cells, in place, until exactly OVERSIZED params
        requests have too_long set; False if that cannot be reached."""
        count = sum(t for kind, t in zip(kinds, too_long) if kind[0] == "params")
        for members in rng.sample(sorted(cells.values()), len(cells)):
            while count != OVERSIZED:
                drop = count > OVERSIZED
                src = [i for i in members if kinds[i][0] == "params" and too_long[i] == drop]
                dst = [j for j in members if kinds[j][0] != "params" and too_long[j] != drop]
                if not src or not dst:
                    break
                i, j = src[0], dst[0]
                kinds[i], kinds[j] = kinds[j], kinds[i]
                count += -1 if drop else 1
        return count == OVERSIZED

    def _largest(self, rng) -> Query:
        """The request with the largest output in range, which sets the
        workload's peak memory: the chow ring of GL_RANK_MAX with r = 1, as
        JSON.  One per block, so peak_rss_mb reads the same request in every
        run instead of whichever large request the draws happened to give."""
        l = rng.choice(ORACLE_PRIMES)
        q = rng.choice([q for q in range(l + 1, 10**4, l) if ref.is_prime(q)])
        argv = ("present", "--family", "GL", "--rank", str(RANK_MAX), "--theory", "chow",
                "--q", str(q), "--l", str(l), "--format", "json")
        return Query(argv, "present", "json", "GL", RANK_MAX, q, q, l, "chow", None, None, None)

    def _request(self, rng, command, fmt, l, p, q, rank) -> Query:
        family, cutoff, grading, n = "GL", None, None, None
        # compare builds the GL chow presentation, so it shares chow's l = 2 rule
        theory = "chow" if command == "compare" else None
        argv = [command]
        if command in ("present", "series"):
            if rng.random() < 0.3:
                theory = "chow"
            else:
                theory = "cobordism"
                family = rng.choice(ref.FAMILIES)
                rank = ref.fixed_rank(family) or (max(2, rank) if family == "SO_even" else rank)
            argv += ["--family", family, "--rank", str(rank), "--theory", theory]
            if command == "series" or rng.random() < 0.5:
                cutoff = rng.randint(8, 64)
                argv += ["--cutoff", str(cutoff)]
                grading = rng.choice((None, "chow", "topological"))
                if grading:
                    argv += ["--grading", grading]
        elif command == "compare":
            argv += ["--rank", str(rank)]
        elif rng.random() < 0.5:
            n = rank
            argv += ["--n", str(n)]
        argv += ["--q", str(q), "--l", str(l), "--format", fmt]
        return Query(tuple(argv), command, fmt, family, rank, p, q, l, theory, cutoff, grading, n)

    def execute(self, chevring, op: Query):
        cli = chevring.cli
        return cli.run(cli.parse_args(list(op.argv)))

    def check(self, op: Query, result) -> str | None:
        code, out, diagnostic = result
        if code == 1 and diagnostic.startswith("resource limit"):
            return REFUSED
        want = expected_exit(op)
        if code != want:
            return f"{' '.join(op.argv)}: exit {code}, expected {want}: {diagnostic[:200]}"
        if want == 2:
            if out or not diagnostic.startswith("hypothesis violated"):
                return f"{' '.join(op.argv)}: exit 2 without a hypothesis diagnostic"
            return None
        problem = getattr(self, f"_check_{op.command}")(op, out, ref.order(op.q, op.l))
        return f"{' '.join(op.argv)}: {problem}" if problem else None

    def monomials(self, op: Query) -> int:
        return 0

    # -- per-command checks; r is the benchmark's own order of q mod l -----

    def _check_params(self, op: Query, out: str, r: int) -> str | None:
        if op.fmt == "json":
            got = json.loads(out)
        else:
            got = {k: int(v) for k, v in (line.split(" = ") for line in out.splitlines())}
        if (got["p"], got["q"], got["l"]) != (op.p, op.q, op.l):
            return f"wrong (p, q, l) in {got}"
        if got["r"] != r or not ref.is_order(op.q, op.l, got["r"]):
            return f"r = {got['r']} is not the order of q mod l ({r})"
        a, h = got["a"], got["h"]
        if a < 1 or h % op.l == 0 or op.l**a * h != op.q**r - 1:
            return f"a = {a}, h = {h} do not split q^r - 1 as l^a * h"
        if op.n is not None and (got["n"], got["m"], got["e"]) != (op.n, *divmod(op.n, r)):
            return f"wrong long division (n, m, e) = {(got['n'], got['m'], got['e'])}"
        return None

    def _generators(self, op: Query, r: int) -> list[tuple[str, int]]:
        """Expected (name, algebraic degree) pairs of the presentation."""
        if op.theory == "chow":
            return [(f"c_{i * r}", i * r) for i in range(1, op.rank // r + 1)]
        prefix = ref.generator_prefix(op.family)
        degs = ref.degrees(op.family, op.rank)
        return [(f"{prefix}_{i}", d) for i, d in enumerate(degs, start=1) if d % r == 0]

    def _expected_series(self, op: Query, r: int) -> tuple[str, list[int]]:
        grading = op.grading or ("chow" if op.theory == "chow" else "topological")
        scale = 1 if grading == "chow" else 2
        degs = [scale * d for _, d in self._generators(op, r) if scale * d <= op.cutoff]
        return grading, ref.free_series(degs, op.cutoff)

    def _check_present(self, op: Query, out: str, r: int) -> str | None:
        gens = self._generators(op, r)
        if op.fmt == "json":
            got = json.loads(out)
            pairs = [(g["name"], g["algebraic_degree"]) for g in got["generators"]]
            if any(g["topological_degree"] != 2 * g["algebraic_degree"] for g in got["generators"]):
                return "topological degree is not twice the algebraic degree"
            if (got["theory"], got["prime"], got["r"]) != (op.theory, op.l, r):
                return f"wrong theory, prime or r: {got['theory']}, {got['prime']}, {got['r']}"
            if sorted(pairs) != sorted(gens):
                return f"generators {pairs}, expected {gens}"
            if op.cutoff is not None:
                grading, expected = self._expected_series(op, r)
                if got["series"]["grading"] != grading:
                    return f"series grading {got['series']['grading']}, expected {grading}"
                return _series_mismatch("series", got["series"]["coefficients"], expected)
            return None
        ring = f"F_{op.l}" if op.theory == "cobordism" else f"Z/{op.l}"
        if op.fmt == "latex":
            head, _, names = out.partition("[")
            head = head.replace("{", "").replace("}", "")
            want = ("\\mathbbF_" if op.theory == "cobordism" else "\\mathbbZ/") + str(op.l)
            if head != want:
                return f"ring {head}, expected {want}"
            got_names = [n.replace("{", "").replace("}", "") for n in names.rstrip("]").split(", ") if n]
            if sorted(got_names) != sorted(n for n, _ in gens):
                return f"generator names {got_names}, expected {[n for n, _ in gens]}"
            return None
        lines = out.splitlines()
        if op.cutoff is not None:
            grading, expected = self._expected_series(op, r)
            want = f"series ({grading} grading, up to degree {op.cutoff}): " + ", ".join(map(str, expected))
            if lines.pop() != want:
                return f"series line differs from {want!r}"
        head = lines[0]
        if not (head.startswith(ring + "[") if gens else head == ring):
            return f"ring line {head!r}, expected {ring}"
        pairs = []
        for line in lines[1:]:
            match = re.fullmatch(r"  (\S+): algebraic degree (\d+), topological degree (\d+)", line)
            if match is None:
                if gens or not line.startswith("  (no generators"):
                    return f"unexpected line {line!r}"
                continue
            name, alg, top = match[1], int(match[2]), int(match[3])
            if top != 2 * alg:
                return f"{line!r}: topological degree is not twice the algebraic degree"
            pairs.append((name, alg))
        if sorted(pairs) != sorted(gens):
            return f"generators {pairs}, expected {gens}"
        return None

    def _check_series(self, op: Query, out: str, r: int) -> str | None:
        grading, expected = self._expected_series(op, r)
        if op.fmt == "json":
            got = json.loads(out)
            if got["grading"] != grading:
                return f"grading {got['grading']}, expected {grading}"
            return _series_mismatch("series", got["series"]["coefficients"], expected)
        if op.fmt == "text":
            return _series_mismatch("series", [int(c) for c in out.split(", ")], expected)
        *terms, tail = out.split(" + ")
        if tail != f"O(t^{{{op.cutoff + 1}}})":
            return f"series tail {tail!r}"
        coeffs = [0] * (op.cutoff + 1)
        for term in terms:
            match = re.fullmatch(r"(\d*)(?:t\^\{?(\d+)\}?)?", term)
            if match is None:
                return f"unparsable term {term!r}"
            degree = int(match[2]) if match[2] else 0
            coeffs[degree] = int(match[1]) if match[1] else 1
        return _series_mismatch("series", coeffs, expected)

    def _check_compare(self, op: Query, out: str, r: int) -> str | None:
        expected = [d for _, d in self._generators(op, r)]
        if op.fmt == "json":
            got = json.loads(out)
            seen = (got["equal"], got["r"], got["chow_degrees"], got["cobordism_degrees"])
            return None if seen == (True, r, expected, expected) else f"report {seen}"
        want = [
            f"GL_{op.rank}, q = {op.q}, l = {op.l}: equal",
            f"  chow degrees: {expected}",
            f"  cobordism degrees: {expected}",
        ]
        return None if out.splitlines() == want else f"report {out[:200]!r}"


WORKLOADS = {w.name: w for w in (Coinvariants, Invariants, Queries)}
