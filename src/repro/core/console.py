"""A terminal front end for feedback sessions.

The prototype used the ImageGrouper GUI (paper §4, Figure 3); offline
and in terminals this module provides the equivalent loop: show a
numbered screen of representative images (with ASCII previews), read the
user's relevant picks, decompose, repeat, and print the grouped result.

The I/O functions are injectable, so the loop is unit-testable and the
CLI wires it to stdin/stdout.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.engine import QueryDecompositionEngine
from repro.core.presentation import QueryResult
from repro.errors import QueryError
from repro.utils.rng import RandomState

PrintFunction = Callable[[str], None]
InputFunction = Callable[[str], str]


def parse_picks(raw: str, shown: Sequence[int]) -> List[int]:
    """Parse the user's reply into image ids.

    Accepts space/comma separated *screen positions* (1-based), ``all``,
    or an empty string (no picks).  Raises :class:`QueryError` on
    malformed input so the caller can re-prompt.
    """
    text = raw.strip().lower()
    if not text:
        return []
    if text == "all":
        return list(shown)
    picks: List[int] = []
    for token in text.replace(",", " ").split():
        try:
            position = int(token)
        except ValueError as exc:
            raise QueryError(f"not a number: {token!r}") from exc
        if not 1 <= position <= len(shown):
            raise QueryError(
                f"position {position} out of range 1..{len(shown)}"
            )
        picks.append(int(shown[position - 1]))
    return picks


def run_console_session(
    engine: QueryDecompositionEngine,
    *,
    k: int,
    rounds: int = 3,
    screens: int = 2,
    seed: RandomState = None,
    input_fn: Optional[InputFunction] = None,
    print_fn: Optional[PrintFunction] = None,
    preview: Optional[Callable[[int], str]] = None,
) -> QueryResult:
    """Drive an interactive session over the injected I/O functions.

    Parameters
    ----------
    k:
        Final result size.
    rounds:
        Feedback rounds before the final retrieval.
    screens:
        Random screens shown per round.
    preview:
        Optional ``image_id -> str`` renderer printed next to each
        candidate (e.g. an ASCII thumbnail).

    ``input_fn``/``print_fn`` default to the built-ins, resolved at call
    time so test harnesses can monkeypatch them.  Input that ends before
    a round is answered raises :class:`QueryError` naming the round.
    """
    if input_fn is None:
        input_fn = input
    if print_fn is None:
        print_fn = print
    database = engine.database
    session = engine.new_session(seed=seed)
    for round_no in range(1, rounds + 1):
        shown = session.display(screens=screens)
        print_fn(
            f"--- round {round_no}: {len(shown)} representative "
            "image(s) ---"
        )
        for position, image_id in enumerate(shown, start=1):
            label = database.category_of(image_id)
            print_fn(f"  [{position:3d}] image {image_id} ({label})")
            if preview is not None:
                print_fn(preview(image_id))
        while True:
            try:
                raw = input_fn(
                    "relevant picks (positions, 'all', or empty): "
                )
            except EOFError:
                raise QueryError(
                    f"input ended before round {round_no} was answered"
                ) from None
            try:
                picks = parse_picks(raw, shown)
                break
            except QueryError as exc:
                print_fn(f"  ! {exc}")
        session.submit(picks)
        print_fn(
            f"  -> {session.n_subqueries} active subquer"
            f"{'y' if session.n_subqueries == 1 else 'ies'}, "
            f"{len(session.marked_ids)} image(s) marked so far"
        )
    result = session.finalize(k)
    print_fn("--- final result ---")
    print_fn(result.describe())
    for rank, group in enumerate(result.groups, start=1):
        cats: dict[str, int] = {}
        for image_id in group.items.ids():
            cat = database.category_of(image_id)
            cats[cat] = cats.get(cat, 0) + 1
        top = max(cats, key=cats.get) if cats else "-"
        print_fn(f"  group {rank}: mostly {top} ({len(group)} images)")
    return result
