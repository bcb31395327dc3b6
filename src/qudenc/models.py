"""Model Hamiltonians, per-scheme resource pricing, and scenario labels.

Models are built as lists of local terms (1- or 2-site generalized-matrix
products with a real coefficient).  Pricing a term under an encoding means
running the full pipeline: encode each site, tensor the factors together,
synthesize one first-order Trotter step, optimize it, and count entangling
gates.  Per-(term, encoding) prices are cached by matrix digest, which
both speeds up sweeps and makes counts manifestly identical across system
sizes for translation-invariant models.

Five composite schemes are compared:

    sb_only / gray_only / unary_only   every term in one code
    sb_and_gray                        per-term best of SB and Gray; any
                                       particle whose terms split between
                                       the two pays 2 conversions of K-1
                                       CNOTs per Trotter step
    all_with_compacting                per-term best of all three; a
                                       particle with unary-priced terms
                                       pays 2 SB<->unary conversions at
                                       the Clifford+T CNOT price

Bosonic matrices may be rebuilt at the next power-of-two cutoff before
compact encoding when that lowers the count (diagonals then become
affine in the bits and lose all entangling gates).  A term is tried
augmented only when every matrix in it passes ``encoder.can_augment``
(a named bosonic operator); spins and unnamed matrices such as the
identity are priced as they are.  Ties prefer the lower-qubit,
conversion-free choice (SB, then Gray, then unary).

Pricing holds each term's Pauli sum packed (``paulis.PackedSum``, a padded
row of codes per string): the site product builds those rows in numpy and
hands them as they are to the staircase layout and the optimizer's core,
with no PauliSum and no tuple per string.  ``encode_term`` unpacks the
same sum into a PauliSum.  Terms of one report often share their rows
(a plain and an augmented term under SB or Gray, distinct shifted-QHO
and Franck-Condon terms), so the core runs once per (register, rows)
until ``clear_price_cache``, and its count serves every later term with
those rows (``_step_cost``).

The boson-sampling circuit layer reuses the same site product: each gate
is one model term, tensored straight onto its modes' qubits (mode m owns
[m * nq, (m + 1) * nq)) and synthesized by trotter_step's layout.

Scenario labels follow the classification: A when a single compact code is
optimal, B when mixing SB and Gray wins, C when unary wins and compacting
in and out is still cheaper than staying compact, D when unary wins but
compacting is not worthwhile.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .circuits import (ENTANGLING_KINDS, Circuit, _circuit, _trotter_ids,
                       count_resources, trotter_step)
from .converters import SB_TO_GRAY, SB_TO_UNARY, conversion_cost
from .encoding import GRAY, SB, UNARY, EncodingSpec, check_level_count, num_qubits
from .encoder import augment_truncation, can_augment, encode_matrix
# optimize, trotter_step and count_resources are no longer called here, but
# stay names of this module: the benchmark's traced run (perfbench/spans.py)
# wraps them here.
from .optimizer import MAX_SWEEPS, _link, _of_kind, _optimize_ids, optimize
from .paulis import _END, PackedSum, PauliSum, _kept
from .qudit_ops import BOSONIC, SPIN, QuditMatrix, bosonic, matrix_digest, spin, spin_levels

BOSE_HUBBARD = "bose_hubbard"
SHIFTED_QHO = "shifted_qho"
FRANCK_CONDON = "franck_condon"
HEISENBERG = "heisenberg"
BOSON_SAMPLING = "boson_sampling"

# Each scheme's codes in tie-break order: a term takes the cheapest, ties
# going to the earlier code (fewer qubits, no conversions).
_SCHEME_CODES = {"sb_only": (SB,), "gray_only": (GRAY,), "unary_only": (UNARY,),
                 "sb_and_gray": (SB, GRAY), "all_with_compacting": (SB, GRAY, UNARY)}
SCHEME_NAMES = tuple(_SCHEME_CODES)
# _step_cost checks each term's Trotter step at this angle; no count depends on it.
PRICING_THETA = 0.37
COEFF_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class LocalTerm:
    """coefficient * sum of matrix products over `sites`.

    factors is a tuple of products; each product supplies one QuditMatrix
    per site (so a hopping term is ((adag, a), (a, adag))).  The summed
    operator times the coefficient is Hermitian for every built model.
    """

    sites: tuple[int, ...]
    factors: tuple[tuple[QuditMatrix, ...], ...]
    coefficient: float
    label: str

    def __post_init__(self):
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("repeated site index in a local term")
        for product in self.factors:
            if len(product) != len(self.sites):
                raise ValueError("each product needs one matrix per site")
        for j in range(len(self.sites)):
            dims = {p[j].d for p in self.factors}
            if len(dims) != 1:
                raise ValueError("inconsistent dimensions on one site")

    def site_dims(self) -> tuple[int, ...]:
        return tuple(self.factors[0][j].d for j in range(len(self.sites)))


def term_matrix(term: LocalTerm) -> np.ndarray:
    """Dense joint matrix, first site least significant in the joint index."""
    dims = term.site_dims()
    dim = int(np.prod(dims))
    out = np.zeros((dim, dim), dtype=complex)
    for product in term.factors:
        acc = np.array([[1.0]], dtype=complex)
        for m in reversed(product):
            acc = np.kron(acc, np.asarray(m))
        out += acc
    return term.coefficient * out


# ---------------------------------------------------------------------------
# model builders: each takes the ModelSpec and its parameters, with defaults

def _bose_hubbard_terms(spec, t=1.0, U=1.0, mu=0.0, periodic=True) -> list[LocalTerm]:
    N, d = spec.N, spec.d
    a = bosonic(d, "a")
    adag = bosonic(d, "adag")
    n = bosonic(d, "n")
    nn1 = bosonic(d, "n_nminus1")
    terms: list[LocalTerm] = []
    if N > 1:
        bonds = [(i, (i + 1) % N) for i in range(N if periodic else N - 1)]
        for i, j in bonds:
            terms.append(LocalTerm((i, j), ((adag, a), (a, adag)), -t, "hopping"))
    for i in range(N):
        terms.append(LocalTerm((i,), ((nn1,),), U / 2.0, "onsite"))
        terms.append(LocalTerm((i,), ((n,),), -mu, "chemical"))
    return terms


def _identity_matrix(d: int) -> QuditMatrix:
    return QuditMatrix(np.eye(d), name="identity", family=BOSONIC)


def _shifted_qho_terms(spec, omega=1.0, delta=0.5) -> list[LocalTerm]:
    if spec.N != 1:
        raise ValueError("the shifted oscillator is a single-mode model")
    d = spec.d
    q2 = bosonic(d, "q2")
    p2 = bosonic(d, "p2")
    q = bosonic(d, "q")
    terms = [
        LocalTerm((0,), ((q2,),), omega / 2.0, "q2"),
        LocalTerm((0,), ((p2,),), omega / 2.0, "p2"),
        LocalTerm((0,), ((q,),), -omega * delta, "linear"),
        LocalTerm((0,), ((_identity_matrix(d),),), omega * delta ** 2 / 2.0,
                  "constant"),
    ]
    return terms


def duschinsky_matrix(M: int, k: int, seed: int) -> np.ndarray:
    """Seeded row-sparse mixing matrix: k nonzeros per row, rows normalized.

    Not exactly unitary; only the sparsity pattern matters for counting.
    """
    if not 1 <= k <= M:
        raise ValueError("need 1 <= k <= M nonzeros per row")
    rng = np.random.default_rng(seed)
    S = np.zeros((M, M))
    for j in range(M):
        cols = rng.choice(M, size=k, replace=False)
        vals = rng.uniform(-1.0, 1.0, size=k)
        while np.linalg.norm(vals) < 1e-9:
            vals = rng.uniform(-1.0, 1.0, size=k)
        S[j, cols] = vals / np.linalg.norm(vals)
    return S


def _franck_condon_terms(spec, omega_A=None, omega_B=None, k=None,
                         delta=None) -> list[LocalTerm]:
    """M = N modes; the defaults depend on M."""
    M, d = spec.N, spec.d
    wA = np.asarray(np.ones(M) if omega_A is None else omega_A, dtype=float)
    wB = np.asarray(np.full(M, 1.1) if omega_B is None else omega_B, dtype=float)
    dvec = np.asarray(np.full(M, 0.2) if delta is None else delta, dtype=float)
    if wA.shape != (M,) or wB.shape != (M,) or dvec.shape != (M,):
        raise ValueError("omega_A, omega_B, delta must each have length M")
    if np.any(wA <= 0) or np.any(wB <= 0):
        raise ValueError("mode frequencies must be positive")
    S = duschinsky_matrix(M, min(4, M) if k is None else k, spec.seed)
    J = np.diag(np.sqrt(wB)) @ S @ np.diag(1.0 / np.sqrt(wA))

    quad = np.zeros(M)            # coefficient of q_m^2 (and p_m^2)
    cross = np.zeros((M, M))      # coefficient of q_m q_m' (m < m'), and p p'
    lin = np.zeros(M)             # coefficient of q_m
    const = 0.0
    # Row j adds to each entry with the same float operations, in the same
    # order of j, as a loop over (j, m, m'); J has k nonzeros per row, so
    # only those pairs touch cross.
    for j in range(M):
        w, row = wB[j], J[j]
        quad += 0.5 * w * row ** 2
        lin += w * dvec[j] * row
        nz = np.flatnonzero(row)
        cross[np.ix_(nz, nz)] += np.outer(w * row[nz], row[nz])
        const += 0.5 * w * dvec[j] ** 2

    q = bosonic(d, "q")
    p = bosonic(d, "p")
    q2 = bosonic(d, "q2")
    p2 = bosonic(d, "p2")
    terms: list[LocalTerm] = []
    for m in range(M):
        if abs(quad[m]) > COEFF_ZERO_TOL:
            terms.append(LocalTerm((m,), ((q2,),), quad[m], "q2"))
            terms.append(LocalTerm((m,), ((p2,),), quad[m], "p2"))
        if abs(lin[m]) > COEFF_ZERO_TOL:
            terms.append(LocalTerm((m,), ((q,),), lin[m], "linear"))
    # Row-major over the upper triangle, as the loop over m < m' was.
    upper = np.nonzero(np.triu(np.abs(cross) > COEFF_ZERO_TOL, 1))
    for m, mp in zip(*(ix.tolist() for ix in upper)):
        terms.append(LocalTerm((m, mp), ((q, q),), cross[m, mp], "qq"))
        terms.append(LocalTerm((m, mp), ((p, p),), cross[m, mp], "pp"))
    if abs(const) > COEFF_ZERO_TOL:
        terms.append(LocalTerm((0,), ((_identity_matrix(d),),), const, "constant"))
    return terms


def _heisenberg_terms(spec, J=1.0, g_field=1.0) -> list[LocalTerm]:
    sz = spin(spec.s, "z")
    sx = spin(spec.s, "x")
    terms: list[LocalTerm] = []
    for i in range(spec.N - 1):
        terms.append(LocalTerm((i, i + 1), ((sz, sz),), -J, "zz"))
    for i in range(spec.N):
        terms.append(LocalTerm((i,), ((sx,),), -g_field, "field"))
    return terms


def _boson_sampling_terms(spec, gates=()) -> list[LocalTerm]:
    a = bosonic(spec.d, "a")
    adag = bosonic(spec.d, "adag")
    n = bosonic(spec.d, "n")
    terms: list[LocalTerm] = []
    for r, gate in enumerate(gates):
        kind, modes, theta = gate["kind"], tuple(gate["modes"]), float(gate["theta"])
        if any(not 0 <= m < spec.N for m in modes):
            raise ValueError(f"mode index out of range in gate {r}")
        if kind == "phase_shifter":
            if len(modes) != 1:
                raise ValueError("phase_shifter takes one mode")
            terms.append(LocalTerm(modes, ((n,),), theta, f"phase_shifter_{r}"))
        elif kind == "beamsplitter":
            if len(modes) != 2:
                raise ValueError("beamsplitter takes two modes")
            terms.append(LocalTerm(modes, ((adag, a), (a, adag)), theta,
                                   f"beamsplitter_{r}"))
        else:
            raise ValueError(f"unknown boson-sampling gate kind {kind!r}")
    return terms


def _is_real(v) -> bool:
    """A finite number that converts to a float (NaN fails the comparison)."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


def _is_gate(v) -> bool:
    return (isinstance(v, dict) and isinstance(v.get("kind"), str)
            and isinstance(v.get("modes"), (list, tuple))
            and all(isinstance(m, int) and not isinstance(m, bool) for m in v["modes"])
            and _is_real(v.get("theta")))


_REAL = (_is_real, "a finite real number")
_REALS = (lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(_is_real, v)),
          "a list of finite real numbers")
# Each model's builder and the parameters it reads from ModelSpec.params,
# with their checks; the builder's keyword defaults fill in the rest.
_MODELS = {
    BOSE_HUBBARD: (_bose_hubbard_terms, {
        "t": _REAL, "U": _REAL, "mu": _REAL,
        "periodic": (lambda v: isinstance(v, bool), "true or false")}),
    SHIFTED_QHO: (_shifted_qho_terms, {"omega": _REAL, "delta": _REAL}),
    FRANCK_CONDON: (_franck_condon_terms, {
        "omega_A": _REALS, "omega_B": _REALS, "delta": _REALS,
        "k": (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool),
              "an integer")}),
    HEISENBERG: (_heisenberg_terms, {"J": _REAL, "g_field": _REAL}),
    BOSON_SAMPLING: (_boson_sampling_terms, {
        "gates": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_gate, v)),
                  'a list of {"kind": str, "modes": [int, ...], "theta": number}')}),
}
MODEL_NAMES = tuple(_MODELS)


@dataclass(frozen=True)
class ModelSpec:
    model: str
    N: int = 1
    d: int | None = None
    s: float | None = None
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.model == HEISENBERG:
            if self.s is None:
                raise ValueError("Heisenberg needs a spin s")
            spin_levels(self.s)
        elif self.d is None:
            raise ValueError("bosonic models need a cutoff d")
        else:
            check_level_count(self.d)

    @property
    def site_dim(self) -> int:
        if self.model == HEISENBERG:
            return spin_levels(self.s)
        return self.d

    @property
    def family(self) -> str:
        return SPIN if self.model == HEISENBERG else BOSONIC


def build_model(spec: ModelSpec) -> list[LocalTerm]:
    """The model's local terms, from its row of the model table ``_MODELS``:
    every parameter must be one the builder reads, of the type it needs,
    and the builder supplies the defaults."""
    builder, accepted = _MODELS[spec.model]
    for key, value in spec.params.items():
        if key not in accepted:
            raise ValueError(f"{spec.model} has no parameter {key!r}; "
                             f"it accepts {', '.join(accepted)}")
        ok, what = accepted[key]
        if not ok(value):
            raise ValueError(f"{spec.model} parameter {key!r} must be {what}, got {value!r}")
    return builder(spec, **spec.params)


# ---------------------------------------------------------------------------
# pricing

def _site_product(products, specs, offsets, n_qubits: int) -> PackedSum:
    """Sum of the products' tensor products, site j encoded under specs[j] from
    qubit offsets[j] up, unpruned and in canonical order.  Sites own disjoint
    qubits, so strings concatenate and coefficients multiply; partial
    products below PRUNE_EPS drop as in tests/reference_paulis.multiply.  A
    matrix object met again under the same spec is encoded once.

    Each product is an outer product over its sites in site order.  Its
    coefficients are CPython's complex products, taken as separate float
    operations, and equal strings are summed from 0 in the order the
    products give them, so every float is the one that multiplying and
    adding Python complex numbers string by string gives."""
    encoded: dict = {}
    blocks, re, im = [], [], []
    for product in products:
        ar, ai, parts = np.ones(1), np.zeros(1), []
        for spec, offset, m in zip(specs, offsets, product):
            if (spec, id(m)) not in encoded:
                encoded[spec, id(m)] = PackedSum.pack(
                    encode_matrix(spec, m).sum.terms.items(), num_qubits(spec))
            _, site, br, bi = encoded[spec, id(m)]
            with np.errstate(over="ignore", invalid="ignore"):  # as Python floats overflow
                pr = np.multiply.outer(ar, br) - np.multiply.outer(ai, bi)
                pi = np.multiply.outer(ar, bi) + np.multiply.outer(ai, br)
            keep = np.flatnonzero(_kept(pr, pi))
            outer, inner = np.divmod(keep, len(br))
            codes = site[inner]
            parts = [part[outer] for part in parts]
            parts.append(np.where(codes == _END, _END, codes + 4 * offset))
            ar, ai = pr.ravel()[keep], pi.ravel()[keep]
        # Row r: string r of the product, its sites side by side.  Sorting
        # a row sorts the string's qubits and moves the padding to its end.
        blocks.append(np.sort(np.hstack(parts or [np.empty((1, 0), np.intc)]), axis=1))
        re.append(ar)
        im.append(ai)
    width = max(1, *(block.shape[1] for block in blocks))
    rows = np.full((sum(map(len, re)), width), _END, np.intc)
    at = 0
    for block in blocks:
        rows[at:at + len(block), :block.shape[1]] = block
        at += len(block)
    del blocks
    # Sort the strings by their codes + 1, several to an int64 key, with 0
    # for padding, so that a string sorts before the longer ones it begins.
    bits = (4 * n_qubits + 1).bit_length()
    per = 63 // bits
    digits = np.where(rows == _END, 0, rows.astype(np.int64) + 1)
    weights = 1 << bits * np.arange(per - 1, -1, -1, dtype=np.int64)
    keys = [digits[:, c:c + per] @ weights[max(0, c + per - width):]
            for c in range(0, width, per)]
    del digits
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(rows), bool)  # sorted string i differs from string i - 1
    new[:1] = True
    for key in keys:
        new[1:] |= key[order[1:]] != key[order[:-1]]
    group = np.empty(len(order), np.intp)
    group[order] = np.cumsum(new) - 1
    rows = rows[order[new]]
    # bincount adds each string's weights in turn, from 0.
    sums = (np.bincount(group, np.concatenate(part), len(rows)) for part in (re, im))
    return PackedSum(n_qubits, rows, *sums)


def _term_sum(term: LocalTerm, kind: str, g: int = 3, augment: bool = False) -> PackedSum:
    """encode_term, packed: the term's coefficient times the site product,
    pruned, in canonical order."""
    products = (tuple(tuple(map(augment_truncation, product)) for product in term.factors)
                if augment else term.factors)
    specs = [EncodingSpec(kind, m.d, g=g) for m in products[0]]
    offsets = list(accumulate((num_qubits(sp) for sp in specs), initial=0))
    h = _site_product(products, specs, offsets, offsets[-1])
    c = term.coefficient  # c * z for a Python complex z, one float operation at a time
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats overflow
        h = h._replace(re=c * h.re - 0.0 * h.im, im=c * h.im + 0.0 * h.re)
    return h.pruned()


def encode_term(term: LocalTerm, kind: str, g: int = 3,
                augment: bool = False) -> PauliSum:
    """Pauli sum of the whole term on a register laid out site by site
    (first site in the lowest qubits)."""
    return _term_sum(term, kind, g, augment).unpack()


_PRICE_CACHE: dict = {}
# digest of (n_qubits, rows) -> the optimizer core's count on that Trotter-step structure
_STEP_MEMO: dict = {}


def clear_price_cache() -> None:
    _PRICE_CACHE.clear()
    _STEP_MEMO.clear()


def _term_cache_key(term: LocalTerm, kind: str, augment: bool):
    digests = tuple(tuple(matrix_digest(m) for m in product)
                    for product in term.factors)
    zero = abs(term.coefficient) < COEFF_ZERO_TOL
    return (kind, augment, zero, digests)


def term_entangling_cost(term: LocalTerm, kind: str, augment: bool = False) -> int:
    """Entangling gates of one optimized Trotter-step factor under SB, Gray or unary."""
    key = _term_cache_key(term, kind, augment)
    if key in _PRICE_CACHE:
        return _PRICE_CACHE[key]
    if abs(term.coefficient) < COEFF_ZERO_TOL:
        cost = 0
    else:
        cost = _step_cost(_term_sum(term, kind, augment=augment))
    _PRICE_CACHE[key] = cost
    return cost


def _step_cost(h: PackedSum) -> int:
    """Entangling gates left by optimize(trotter_step(h, theta)) at a generic
    theta.  h must be pruned, with distinct strings in canonical order, as
    _term_sum returns it: then no merge walk merges (README, section
    Optimizer), so the core runs with no merge pass, once per (register,
    rows) until clear_price_cache().  _trotter_ids checks every h."""
    gid, ids, _ = _trotter_ids(h, PRICING_THETA)
    digest = hashlib.blake2b(f"{h.n_qubits} {h.rows.shape}".encode(), digest_size=16)
    digest.update(np.ascontiguousarray(h.rows))
    key = digest.digest()
    cost = _STEP_MEMO.get(key)
    if cost is None:
        dead, _ = _optimize_ids(*_link(gid, ids), gid, ids, None, 0.0, MAX_SWEEPS)
        gone = np.frombuffer(dead, bool)[:-1]
        cost = _STEP_MEMO[key] = int(np.count_nonzero(_of_kind(gid, ids, ENTANGLING_KINDS) > gone))
    return cost


def _priced(term: LocalTerm, kind: str, d: int) -> int:
    """Best cost under one encoding.  For compact codes at a cutoff that is
    not a power of two, the augmented term is priced too when every matrix
    in it passes can_augment (named bosonic operators; spins and the
    shifted-oscillator identity, for two, do not)."""
    base = term_entangling_cost(term, kind)
    if (kind in (SB, GRAY) and d & (d - 1)
            and all(can_augment(m) for product in term.factors for m in product)):
        base = min(base, term_entangling_cost(term, kind, augment=True))
    return base


# ---------------------------------------------------------------------------
# scheme comparison

@dataclass(frozen=True)
class SchemeReport:
    model: str
    d_or_s: float
    N: int
    counts: dict
    ratios: dict
    conversions: dict
    qubits_per_particle: dict
    improvements: dict
    scenario: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def classify_scenario(counts: dict) -> str:
    """A/B/C/D from the five scheme counts; ties break toward fewer qubits
    and fewer conversions (SB, Gray, SB&Gray, then the unary schemes)."""
    best = min(counts.values())
    compact_best = min(counts["sb_only"], counts["gray_only"])
    if compact_best == best:
        return "A"
    if counts["sb_and_gray"] == best:
        return "B"
    # A unary scheme wins: C when compacting in and out beats staying compact.
    return "C" if counts["all_with_compacting"] < compact_best else "D"


def compute_scheme_report(spec: ModelSpec) -> SchemeReport:
    terms = build_model(spec)
    d = spec.site_dim
    K = num_qubits(EncodingSpec(SB, d))
    # Two conversions per Trotter step, each at its Clifford+T circuit's CNOTs.
    sb_gray_conv, unary_conv = (2 * conversion_cost(kind, d, "clifford_t").counts.get("CNOT", 0)
                                for kind in (SB_TO_GRAY, SB_TO_UNARY))

    cost = {kind: [_priced(t, kind, d) for t in terms]
            for kind in (SB, GRAY, UNARY)}
    unary_width = num_qubits(EncodingSpec(UNARY, d))

    counts, conversions, qubits, improvements = {}, {}, {}, {}
    for name, codes in _SCHEME_CODES.items():
        choice = [min(codes, key=lambda k: cost[k][i]) for i in range(len(terms))]
        used: dict[int, set] = {}  # codes of each particle's nonzero terms
        for t, kind in zip(terms, choice):
            if abs(t.coefficient) >= COEFF_ZERO_TOL:
                for site in t.sites:
                    used.setdefault(site, set()).add(kind)
        mixed = len(codes) > 1
        # A mixed scheme converts a particle into unary and back when it has a
        # unary-priced term, and between SB and Gray when Gray shares it.
        conv = sum(unary_conv * (UNARY in f) + sb_gray_conv * (GRAY in f and len(f) > 1)
                   for f in used.values()) if mixed else 0
        counts[name] = sum(cost[kind][i] for i, kind in enumerate(choice)) + conv
        conversions[name] = conv
        # A single-code scheme keeps every particle in its code; a mixed one
        # needs the unary width once any particle uses unary.
        on_unary = any(UNARY in f for f in used.values()) if mixed else codes == (UNARY,)
        qubits[name] = unary_width if on_unary else K
        if mixed:
            improvements[name] = counts[name] < min(sum(cost[k]) for k in codes)

    sb_total = counts["sb_only"]

    def ratio(v: int) -> float:
        if sb_total:
            return v / sb_total
        return 1.0 if v == 0 else float("inf")

    ratios = {k: ratio(v) for k, v in counts.items()}
    return SchemeReport(
        model=spec.model,
        d_or_s=(spec.s if spec.model == HEISENBERG else spec.d),
        N=spec.N,
        counts=counts,
        ratios=ratios,
        conversions=conversions,
        qubits_per_particle=qubits,
        improvements=improvements,
        scenario=classify_scenario(counts),
    )


# ---------------------------------------------------------------------------
# boson-sampling circuit layer

def boson_sampling_circuit(spec: ModelSpec, kind: str, g: int = 3) -> Circuit:
    """Concatenated single-Trotter-factor circuits, one per listed gate.  Mode m
    owns qubits [m * nq, (m + 1) * nq); each gate's term, encoded there with unit
    coefficient, is synthesized at theta = the gate angle, so a zero-angle gate
    keeps its gates."""
    if spec.model != BOSON_SAMPLING:
        raise ValueError("needs a boson_sampling ModelSpec")
    enc = EncodingSpec(kind, spec.d, g=g)
    nq = num_qubits(enc)
    circ = Circuit(spec.N * nq)
    for term in build_model(spec):
        h = _site_product(term.factors, [enc] * len(term.sites),
                          [site * nq for site in term.sites], circ.n_qubits)
        step = _circuit(h.pruned(), term.coefficient)
        circ.gates.extend(step.gates)
        circ.global_phase += step.global_phase
    return circ
