"""Correctness checks that do not trust the engine under test.

Two kinds, both run outside the timed region:

* **exact oracle** — :func:`reference_fold` folds the frozenset
  reference engine (:func:`repro.revision.reference.reference_select`)
  over the generators' planted masks, step by step along an update
  chain.  Used wherever the model sets are small (``engine_sat``,
  ``service_stream``).  Satoh and Weber need the globally minimal
  differences, which the frozenset engine finds by pairwise subset
  tests (0.7 s for 64 × 48 models); :func:`_select_global` computes the
  same sets with numpy on the masks, by the same definitions.
* **numpy oracle and properties** — dense sets of 10^3–10^5 models are
  too large for the frozenset engine, so :func:`check_dense` computes
  Dalal and Forbus exactly from a Hamming-distance matrix, and checks
  the properties every operator must have: the result lies in M(P); if
  T∧P is satisfiable, Dalal, Satoh, Weber and Borgida return exactly
  M(T∧P) and Winslett and Forbus contain it; and the containments of the
  paper's Fig. 2 hold between the six results of one pair.

Every check raises :class:`CheckFailed` with a message naming the case.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.revision.reference import reference_select

#: Fig. 2 of the paper: ``small ⊆ large`` for every (T, P).
FIG2_ARROWS = (
    ("dalal", "satoh"), ("dalal", "forbus"), ("dalal", "weber"),
    ("forbus", "winslett"), ("satoh", "winslett"), ("satoh", "weber"),
    ("borgida", "winslett"),
)


class CheckFailed(AssertionError):
    pass


def _to_sets(letters: Sequence[str], masks: Iterable[int]):
    return frozenset(
        frozenset(letters[bit] for bit in range(len(letters)) if mask >> bit & 1)
        for mask in masks
    )


def reference_fold(
    letters: Sequence[str],
    t_masks: Sequence[int],
    chain_masks: Sequence[Sequence[int]],
    operator: str,
) -> Tuple[int, ...]:
    """Masks of ``T * P1 * ... * Pk`` by the frozenset reference engine."""
    if operator in ("satoh", "weber"):
        current = tuple(t_masks)
        for p_masks in chain_masks:
            current = _select_global(operator, current, p_masks)
        return tuple(sorted(current))
    index = {name: bit for bit, name in enumerate(letters)}
    current = _to_sets(letters, t_masks)
    for p_masks in chain_masks:
        current = reference_select(operator, current, _to_sets(letters, p_masks))
    return tuple(sorted(
        sum(1 << index[name] for name in model) for model in current
    ))


def _select_global(operator: str, t_masks: Sequence[int],
                   p_masks: Sequence[int]) -> Tuple[int, ...]:
    """Satoh or Weber on masks: from the inclusion-minimal differences
    t ^ p over all pairs, Satoh keeps each p that reaches T by one of
    them, Weber each p that differs from some t only inside their union.
    Empty P gives the empty result, empty T gives P (as the engine)."""
    if not p_masks or not t_masks:
        return tuple(p_masks)
    t = np.asarray(t_masks, dtype=np.int64)
    p = np.asarray(p_masks, dtype=np.int64)
    diffs = t[:, None] ^ p[None, :]
    unique = np.unique(diffs)
    minimal = np.ones(unique.size, dtype=bool)
    for low in range(0, unique.size, 256):
        rows = unique[low:low + 256]
        # below[i, j]: unique[j] is a proper subset of rows[i].
        below = (unique[None, :] & ~rows[:, None]) == 0
        below &= unique[None, :] != rows[:, None]
        minimal[low:low + 256] = ~below.any(axis=1)
    minimal_diffs = unique[minimal]
    if operator == "satoh":
        keep = np.isin(diffs, minimal_diffs).any(axis=0)
    else:
        allowed = np.bitwise_or.reduce(minimal_diffs)
        keep = ((diffs & ~allowed) == 0).any(axis=0)
    return tuple(int(mask) for mask in p[keep])


def check_result(label, expected, masks, query, entailed) -> None:
    """Exact mask comparison plus the query answer on the oracle's masks."""
    if tuple(masks) != tuple(expected):
        raise CheckFailed(
            f"{label}: {len(masks)} models differ from the oracle's "
            f"{len(expected)}"
        )
    want = all(query.holds_on(mask) for mask in expected)
    if entailed != want:
        raise CheckFailed(f"{label}: entails({query.text}) = {entailed}, "
                          f"oracle says {want}")


def _popcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int16)


def check_dense(label, pair, results: Dict[str, Sequence[int]],
                answers: Dict[str, bool]) -> None:
    """Check the results of one dense pair (see the module doc): every
    operator that returned one, and each Fig. 2 arrow between two."""
    t = np.asarray(pair.t_masks, dtype=np.int64)
    p = np.asarray(pair.p_masks, dtype=np.int64)
    distance = _popcount(t[:, None] ^ p[None, :])
    expected = {
        "dalal": p[(distance == distance.min()).any(axis=0)],
        "forbus": p[(distance == distance.min(axis=1)[:, None]).any(axis=0)],
    }
    both = np.intersect1d(t, p)
    if both.size:
        for name in ("dalal", "satoh", "weber", "borgida"):
            expected[name] = both
    got = {name: np.asarray(masks, dtype=np.int64)
           for name, masks in results.items()}
    for name, masks in got.items():
        case = f"{label} {name}"
        if masks.size == 0:
            raise CheckFailed(f"{case}: empty result for satisfiable T and P")
        if not np.isin(masks, p).all():
            raise CheckFailed(f"{case}: result leaves M(P)")
        if name in expected:
            if not np.array_equal(masks, expected[name]):
                raise CheckFailed(
                    f"{case}: {masks.size} models, oracle {expected[name].size}"
                )
        elif both.size and not np.isin(both, masks).all():
            raise CheckFailed(f"{case}: result misses part of M(T∧P)")
        basis = expected.get(name, masks)
        want = all(pair.query.holds_on(int(mask)) for mask in basis)
        if answers[name] != want:
            raise CheckFailed(f"{case}: entails({pair.query.text}) = "
                              f"{answers[name]}, expected {want}")
    for small, large in FIG2_ARROWS:
        if small not in got or large not in got:
            continue  # an operator failed; its failure is counted
        if not np.isin(got[small], got[large]).all():
            raise CheckFailed(f"{label}: {small} ⊄ {large} (Fig. 2)")
