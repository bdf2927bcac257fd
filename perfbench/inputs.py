"""Seeded inputs of the three workloads, with their exact model masks.

Every generator here is a pure function of ``(seed, position)``: the
same seed gives the same requests, in the same order, on any host.  The
masks use the engine's convention (bit ``i`` is the ``i``-th letter in
sorted order) and are computed from the construction, never by the
engine, so :mod:`oracle` can check the engine against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardness import clause_family, sparse_family
from repro.logic.formula import Formula, Var, big_and, big_or, lnot
from repro.logic.printer import to_str

#: The six model-based operators, in the order requests cycle through them.
OPERATORS = ("dalal", "satoh", "weber", "winslett", "borgida", "forbus")

#: ``engine_sat`` rounds: each operator once, four requests at 32 letters
#: and two at 40; which operators get 40 letters rotates every round.  The
#: unequal mix keeps the median latency inside the 32-letter mode instead
#: of on the gap between the two sizes, where it would jump with one
#: request's cost.
SAT_SIZES = (32, 32, 40)
SAT_T_MODELS, SAT_P_MODELS = 64, 48

#: One ``engine_dense`` round: one pair per alphabet size, each revised
#: under all six operators.  ``(letters, P free letters)``: P is 16 cubes
#: that each leave that many letters free; T is 4 cubes of 4 free letters.
#: Whether T∧P is satisfiable alternates with position and round, so each
#: round has two pairs of each kind: Borgida costs 1 ms on one kind and
#: 0.4-0.7 s on the other at 21-22 letters, and drawing the kind at random
#: moved a run's throughput by 14% across seeds.
DENSE_SIZES = ((18, 8), (20, 9), (21, 10), (22, 11))
DENSE_T_CUBES, DENSE_T_FREE, DENSE_P_CUBES = 4, 4, 16

#: ``service_stream``: the KB population in popularity order (rank r is
#: drawn with weight 1/(r+1)), each ``(family, letters)``.
SERVICE_KBS = (
    ("clause", 32), ("sparse", 32), ("clause", 40), ("sparse", 40),
    ("clause", 32), ("sparse", 40), ("clause", 40), ("sparse", 32),
)
SERVICE_T_MODELS, SERVICE_P_MODELS = 32, 24
SERVICE_UPDATES_PER_KB = 4
SERVICE_MAX_CHAIN = 4
#: A round is this many seeded requests (all with a deadline) followed by
#: the one fixed no-deadline request.
SERVICE_SEEDED_PER_ROUND = 9
SERVICE_DEADLINE_S = 120.0


def _rng(*parts) -> random.Random:
    """A stream keyed by a string: stable across processes and hosts."""
    return random.Random(":".join(str(part) for part in parts))


@dataclass(frozen=True)
class Query:
    """A clause over a few letters: ``literals`` are ``(bit, polarity)``."""

    literals: Tuple[Tuple[int, bool], ...]
    formula: Formula
    text: str

    def holds_on(self, mask: int) -> bool:
        return any(bool(mask >> bit & 1) == polarity
                   for bit, polarity in self.literals)


def make_query(rng: random.Random, letters: Sequence[str]) -> Query:
    bits = rng.sample(range(len(letters)), 3)
    literals = tuple((bit, rng.random() < 0.5) for bit in sorted(bits))
    formula = big_or([
        Var(letters[bit]) if polarity else lnot(Var(letters[bit]))
        for bit, polarity in literals
    ])
    return Query(literals, formula, to_str(formula))


@dataclass(frozen=True)
class Pair:
    """One revision request of an engine workload."""

    letters: Tuple[str, ...]
    t_formula: Formula
    p_formula: Formula
    t_masks: Tuple[int, ...]
    p_masks: Tuple[int, ...]
    operators: Tuple[str, ...]
    query: Query


def sat_round(seed: int, round_index: int) -> List[Pair]:
    """The fresh planted-selector CNF pairs of one ``engine_sat`` round."""
    pairs = []
    for position, op in enumerate(OPERATORS):
        letters = SAT_SIZES[(position + round_index) % len(SAT_SIZES)]
        rng = _rng(seed, "engine_sat", round_index, position)
        work = clause_family.build(
            letters, SAT_T_MODELS, SAT_P_MODELS, seed=rng.getrandbits(32)
        )
        pairs.append(Pair(
            work.letters, work.t_formula, work.p_formula,
            work.t_masks, work.p_masks, (op,),
            make_query(rng, work.letters),
        ))
    return pairs


def _cube_dnf(
    rng: random.Random, letters: Sequence[str], cubes: int, free: int
) -> Tuple[Formula, np.ndarray]:
    """A DNF of random cubes (each fixes ``len(letters) - free`` random
    letters) and its exact model set as a boolean array over ``2^n``."""
    n = len(letters)
    member = np.zeros(1 << n, dtype=bool)
    disjuncts = []
    for _ in range(cubes):
        fixed = sorted(rng.sample(range(n), n - free))
        polarity = {bit: rng.random() < 0.5 for bit in fixed}
        disjuncts.append(big_and([
            Var(letters[bit]) if polarity[bit] else lnot(Var(letters[bit]))
            for bit in fixed
        ]))
        completions = np.array(
            [sum(1 << bit for bit in fixed if polarity[bit])], dtype=np.int64
        )
        for bit in range(n):
            if bit not in polarity:
                completions = np.concatenate(
                    [completions, completions | (1 << bit)]
                )
        member[completions] = True
    return big_or(disjuncts), member


def dense_round(seed: int, round_index: int) -> List[Pair]:
    """One dense pair per size; each pair carries all six operators."""
    pairs = []
    for position, (n, p_free) in enumerate(DENSE_SIZES):
        rng = _rng(seed, "engine_dense", round_index, position)
        letters = tuple(f"x{bit:02d}" for bit in range(n))
        consistent = (position + round_index) % 2 == 0
        while True:
            t_formula, t_member = _cube_dnf(
                rng, letters, DENSE_T_CUBES, DENSE_T_FREE
            )
            p_formula, p_member = _cube_dnf(
                rng, letters, DENSE_P_CUBES, p_free
            )
            # The engine revises over V(T) | V(P): every letter must occur.
            if (len(t_formula.variables() | p_formula.variables()) == n
                    and bool((t_member & p_member).any()) == consistent):
                break
        pairs.append(Pair(
            letters, t_formula, p_formula,
            tuple(np.flatnonzero(t_member).tolist()),
            tuple(np.flatnonzero(p_member).tolist()),
            OPERATORS, make_query(rng, letters),
        ))
    return pairs


@dataclass(frozen=True)
class KnowledgeBase:
    name: str
    letters: Tuple[str, ...]
    theory: str
    t_masks: Tuple[int, ...]
    updates: Tuple[str, ...]
    update_masks: Tuple[Tuple[int, ...], ...]
    operator: str


def _family_pair(family: str, letters: int, seed: int):
    if family == "clause":
        return clause_family.build(
            letters, SERVICE_T_MODELS, SERVICE_P_MODELS, seed=seed
        )
    return sparse_family.build(
        letters, SERVICE_T_MODELS, SERVICE_P_MODELS, seed=seed,
        free_letters=0,
    )


def _knowledge_base(name, family, letters, operator, seeds) -> KnowledgeBase:
    base = _family_pair(family, letters, seeds[0])
    updates = [_family_pair(family, letters, s) for s in seeds[1:]]
    return KnowledgeBase(
        name=name,
        letters=base.letters,
        theory=to_str(base.t_formula),
        t_masks=base.t_masks,
        updates=tuple(to_str(u.p_formula) for u in updates),
        update_masks=tuple(u.p_masks for u in updates),
        operator=operator,
    )


def service_population(seed: int) -> List[KnowledgeBase]:
    """The seeded KB population (rank order = popularity order)."""
    kbs = []
    for rank, (family, letters) in enumerate(SERVICE_KBS):
        rng = _rng(seed, "service_stream", "kb", rank)
        seeds = [rng.getrandbits(32) for _ in range(SERVICE_UPDATES_PER_KB + 1)]
        kbs.append(_knowledge_base(
            f"kb-{rank}-{family}{letters}", family, letters,
            OPERATORS[rank % len(OPERATORS)], seeds,
        ))
    return kbs


def nodeadline_kb() -> KnowledgeBase:
    """The fixed KB of the no-deadline request class.

    Independent of the seed, and over an alphabet (36 letters) no seeded
    KB uses, so no worker cache ever holds its carriers: every request of
    the class enumerates afresh and meets the same code path.
    """
    return _knowledge_base("kb-nodeadline", "clause", 36, "dalal", (0, 1))


@dataclass(frozen=True)
class ServiceRequest:
    kb: KnowledgeBase
    chain: Tuple[int, ...]   # indices into kb.updates
    query: Query
    deadline: Optional[float]

    @property
    def request_class(self) -> str:
        return "deadline" if self.deadline is not None else "no_deadline"


class ServiceStream:
    """The zipfian drifting-chain stream, generated round by round.

    KB popularity is 1/(rank+1), sampled stratified per round: rank
    ``k`` gets ``floor(9 * share_k)`` of a round's nine seeded requests
    and the remainder is drawn by the leftover shares, then the round is
    shuffled.  Every round thus has the zipfian head (three requests to
    the top KB, one or two to the next ones) and a seeded tail.  Per
    draw of KB ``k``: with p=0.2 its chain resets to one fresh update,
    with p=0.5 it extends by one (at most :data:`SERVICE_MAX_CHAIN`
    updates), else it repeats.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kbs = service_population(seed)
        self.fixed = nodeadline_kb()
        self._rng = _rng(seed, "service_stream", "draws")
        weights = [1.0 / (rank + 1) for rank in range(len(self.kbs))]
        shares = [SERVICE_SEEDED_PER_ROUND * w / sum(weights) for w in weights]
        self._quota = [k for k, share in enumerate(shares)
                       for _ in range(int(share))]
        self._leftover = [share - int(share) for share in shares]
        self._chains: Dict[int, Tuple[int, ...]] = {
            k: (0,) for k in range(len(self.kbs))
        }
        self._fixed_query = make_query(
            _rng("service_stream", "nodeadline"), self.fixed.letters
        )

    def next_round(self) -> List[ServiceRequest]:
        rng = self._rng
        ranks = self._quota + rng.choices(
            range(len(self.kbs)), weights=self._leftover,
            k=SERVICE_SEEDED_PER_ROUND - len(self._quota),
        )
        rng.shuffle(ranks)
        round_requests = []
        for k in ranks:
            chain = self._chains[k]
            roll = rng.random()
            if roll < 0.2:
                chain = (rng.randrange(SERVICE_UPDATES_PER_KB),)
            elif roll < 0.7 and len(chain) < SERVICE_MAX_CHAIN:
                chain = chain + (rng.randrange(SERVICE_UPDATES_PER_KB),)
            self._chains[k] = chain
            kb = self.kbs[k]
            round_requests.append(ServiceRequest(
                kb, chain, make_query(rng, kb.letters), SERVICE_DEADLINE_S
            ))
        round_requests.append(
            ServiceRequest(self.fixed, (0,), self._fixed_query, None)
        )
        return round_requests
