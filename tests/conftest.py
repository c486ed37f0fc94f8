import pytest

from factlink.corpus import Alignment, OieTriple
from factlink.kg import EntryKind, KgEntry, build_store


def entity(eid, label, description=None, aliases=()):
    return KgEntry(
        id=eid,
        kind=EntryKind.ENTITY,
        label=label,
        description=description,
        aliases=tuple(aliases),
    )


def predicate(pid, label, description=None, aliases=()):
    return KgEntry(
        id=pid,
        kind=EntryKind.PREDICATE,
        label=label,
        description=description,
        aliases=tuple(aliases),
    )


@pytest.fixture
def jordan_store():
    """Small store around the basketball-player running example: two
    entities sharing the surface 'Michael Jordan', a team, a birthplace
    and two predicates."""
    entries = [
        entity(
            "Q41421",
            "Michael Jordan",
            "American basketball player and businessman",
            aliases=("Air Jordan", "M.J.", "His Airness"),
        ),
        entity("Q3308205", "Michael Jordan", "American computer scientist"),
        entity("Q128109", "Chicago Bulls", "basketball team", aliases=("The Bulls",)),
        entity("Q18419", "Brooklyn", "borough of New York City"),
        entity("Q659400", "Wilmington", "city in North Carolina"),
        predicate("P54", "member of sports team", "team the subject plays for"),
        predicate("P19", "place of birth", "most specific known birth location"),
    ]
    return build_store(entries)


def make_alignment(subject, relation, obj, fact, sentence=None, augmented=False):
    return Alignment(
        oie=OieTriple(subject=subject, relation=relation, object=obj, sentence=sentence),
        fact=fact,
        augmented=augmented,
    )
