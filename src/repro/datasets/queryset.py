"""The 11 test queries of Table 1, with subconcept → category mapping.

Table 1 of the paper ("Various Query Evaluation in QD & MV approaches")
lists eleven queries, each with the subconcepts in parentheses.  The
GTIR metric ("ground truth inclusion ratio") counts how many of a
query's subconcepts appear in the result set, so the mapping from
subconcept to database categories defined here is the evaluation's
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import UnknownConceptError


@dataclass(frozen=True)
class Subconcept:
    """One subconcept of a query: a name plus its database categories."""

    name: str
    categories: Tuple[str, ...]


@dataclass(frozen=True)
class QuerySpec:
    """One Table-1 test query."""

    name: str
    description: str
    subconcepts: Tuple[Subconcept, ...]

    @property
    def n_subconcepts(self) -> int:
        """Number of ground-truth subconcepts (GTIR denominator)."""
        return len(self.subconcepts)

    def relevant_categories(self) -> FrozenSet[str]:
        """Union of all subconcept categories."""
        out: set[str] = set()
        for sub in self.subconcepts:
            out.update(sub.categories)
        return frozenset(out)

    def subconcept_of_category(self, category: str) -> Subconcept | None:
        """The subconcept containing ``category``, or ``None``."""
        for sub in self.subconcepts:
            if category in sub.categories:
                return sub
        return None


_SEDAN_POSES = ("sedan_side", "sedan_front", "sedan_back", "sedan_angle")
_LAPTOPS = ("laptop_clear", "laptop_complex")

TABLE1_QUERIES: Tuple[QuerySpec, ...] = (
    QuerySpec(
        name="person",
        description="A person (Hair-model, fitness, Kongfu)",
        subconcepts=(
            Subconcept("hair-model", ("person_hair_model",)),
            Subconcept("fitness", ("person_fitness",)),
            Subconcept("kongfu", ("person_kongfu",)),
        ),
    ),
    QuerySpec(
        name="airplane",
        description="Airplane (single, multiple)",
        subconcepts=(
            Subconcept("single", ("airplane_single",)),
            Subconcept("multiple", ("airplane_multiple",)),
        ),
    ),
    QuerySpec(
        name="bird",
        description="Bird (eagle, owl, sparrow)",
        subconcepts=(
            Subconcept("eagle", ("bird_eagle",)),
            Subconcept("owl", ("bird_owl",)),
            Subconcept("sparrow", ("bird_sparrow",)),
        ),
    ),
    QuerySpec(
        name="car",
        description="Car (modern sedan, antique car, steamed car)",
        subconcepts=(
            Subconcept("modern sedan", _SEDAN_POSES),
            Subconcept("antique car", ("car_antique",)),
            Subconcept("steamed car", ("car_steamed",)),
        ),
    ),
    QuerySpec(
        name="horse",
        description="Horse (polo, wild horse, race)",
        subconcepts=(
            Subconcept("polo", ("horse_polo",)),
            Subconcept("wild horse", ("horse_wild",)),
            Subconcept("race", ("horse_race",)),
        ),
    ),
    QuerySpec(
        name="mountain",
        description="Mountain view (snow, with water)",
        subconcepts=(
            Subconcept("snow", ("mountain_snow",)),
            Subconcept("with water", ("mountain_water",)),
        ),
    ),
    QuerySpec(
        name="rose",
        description="Rose (yellow, red)",
        subconcepts=(
            Subconcept("yellow", ("rose_yellow",)),
            Subconcept("red", ("rose_red",)),
        ),
    ),
    QuerySpec(
        name="water_sports",
        description="Water Sports (surfing, sailing)",
        subconcepts=(
            Subconcept("surfing", ("sport_surfing",)),
            Subconcept("sailing", ("sport_sailing",)),
        ),
    ),
    QuerySpec(
        name="computer",
        description="Computer (server, desktop, laptop)",
        subconcepts=(
            Subconcept("server", ("computer_server",)),
            Subconcept("desktop", ("computer_desktop",)),
            Subconcept("laptop", _LAPTOPS),
        ),
    ),
    QuerySpec(
        name="personal_computer",
        description="Personal computer (desktop, laptop)",
        subconcepts=(
            Subconcept("desktop", ("computer_desktop",)),
            Subconcept("laptop", _LAPTOPS),
        ),
    ),
    QuerySpec(
        name="laptop",
        description=(
            "Laptop (with clear background, with complicated background)"
        ),
        subconcepts=(
            Subconcept("clear background", ("laptop_clear",)),
            Subconcept("complicated background", ("laptop_complex",)),
        ),
    ),
)

_BY_NAME: Dict[str, QuerySpec] = {q.name: q for q in TABLE1_QUERIES}


def get_query(name: str) -> QuerySpec:
    """Look up a Table-1 query by its short name."""
    try:
        return _BY_NAME[name]
    except KeyError as exc:
        raise UnknownConceptError(
            f"unknown query {name!r}; available: {sorted(_BY_NAME)}"
        ) from exc


def query_names() -> List[str]:
    """Short names of the 11 test queries, in Table-1 order."""
    return [q.name for q in TABLE1_QUERIES]
