"""Surface-string normalization and the reserved marker tokens."""

import unicodedata

from .errors import DataError

SUBJ_TOKEN = "<SUBJ>"
REL_TOKEN = "<REL>"
OBJ_TOKEN = "<OBJ>"
DESC_TOKEN = "<DESC>"
SENT_TOKEN = "<SENT>"
FACT_TOKEN = "<FACT>"
MASK_TOKEN = "<mask>"

# Reserved literals; they may never occur inside ingested slot strings,
# labels, descriptions or aliases, otherwise rendered texts stop being
# unambiguous.
MARKER_TOKENS = (
    SUBJ_TOKEN,
    REL_TOKEN,
    OBJ_TOKEN,
    DESC_TOKEN,
    SENT_TOKEN,
    FACT_TOKEN,
    MASK_TOKEN,
)


def normalize_surface(text: str, case_fold: bool = False) -> str:
    """Canonical form used for exact-match comparisons: NFC, trimmed,
    optionally case-folded. Case folding defaults off."""
    out = unicodedata.normalize("NFC", text).strip()
    if case_fold:
        out = out.casefold()
    return out


def check_no_markers(text: str, field: str) -> str:
    """Reject strings containing a reserved marker token; returns the input."""
    if "<" in text:  # every marker starts with it
        for token in MARKER_TOKENS:
            if token in text:
                raise DataError(f"{field} contains reserved token {token!r}: {text!r}")
    return text
