"""Sub-question parsing and repeat detection."""

from __future__ import annotations

from .models import SubQuestion
from .prompts import FIN_KEYWORD


def normalize_subquestion(text: str) -> str:
    """Trim, case-fold and collapse internal whitespace for repeat detection."""
    return " ".join(text.split()).casefold()


def parse_subquestion(raw: str, level: int) -> SubQuestion:
    """The Generator's decomposition completion as the sub-question of ``level``.

    The completion is cut at the first line break so a single call can
    never smuggle in several sub-questions; a blank completion or one
    containing the end-of-decomposition keyword is terminal.
    """
    text = raw.split("\n", 1)[0].strip()
    return SubQuestion(level=level, text=text, terminal=FIN_KEYWORD in text or not text)
