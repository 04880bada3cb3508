"""Text analytics: entity extraction, sentiment, and classification.

Section II.C: "we are able to extract entities (like names, addresses,
companies, ...) and sentiments from documents with a rule based approach";
"text classification, clustering, sentiment analysis" sit on top. The
extracted entities "can be stored as structured data" — see
:func:`extract_to_table`, which bridges unstructured text into the
relational store.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import log
from typing import Any, Iterable, Sequence

from repro.engines.text.tokenizer import sentences, tokenize, tokenize_terms


# --------------------------------------------------------------------------
# rule-based entity extraction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Entity:
    """One extracted entity with its type and character span."""

    text: str
    entity_type: str
    start: int
    end: int


@dataclass(frozen=True)
class EntityRule:
    """A regex rule producing entities of one type."""

    entity_type: str
    pattern: re.Pattern[str]


DEFAULT_RULES: list[EntityRule] = [
    EntityRule("EMAIL", re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.]+\b")),
    EntityRule("MONEY", re.compile(r"(?:\$|€|EUR|USD)\s?\d[\d,.]*")),
    EntityRule("DATE", re.compile(r"\b\d{4}-\d{2}-\d{2}\b")),
    EntityRule("PHONE", re.compile(r"\+\d[\d\s()-]{6,}\d")),
    EntityRule(
        "COMPANY",
        re.compile(
            r"\b(?:[A-Z][A-Za-z0-9&]+(?:\s+[A-Z][A-Za-z0-9&]+)*)\s+"
            r"(?:Inc|Corp|GmbH|AG|SE|Ltd|LLC|Co)\b\.?"
        ),
    ),
    EntityRule(
        "PERSON",
        re.compile(r"\b(?:Mr|Mrs|Ms|Dr|Prof)\.?\s+[A-Z][a-z]+(?:\s+[A-Z][a-z]+)?"),
    ),
    EntityRule("PERCENT", re.compile(r"\b\d+(?:\.\d+)?\s?%")),
]


class EntityExtractor:
    """Rule-based extraction; extend with :meth:`add_rule`."""

    def __init__(self, rules: Iterable[EntityRule] | None = None) -> None:
        self.rules = list(rules) if rules is not None else list(DEFAULT_RULES)

    def add_rule(self, entity_type: str, pattern: str) -> None:
        """Register an additional regex rule."""
        self.rules.append(EntityRule(entity_type.upper(), re.compile(pattern)))

    def extract(self, text: str) -> list[Entity]:
        """All entities, earliest first; overlaps resolved rule-first."""
        found: list[Entity] = []
        taken: list[tuple[int, int]] = []
        for rule in self.rules:
            for match in rule.pattern.finditer(text):
                span = (match.start(), match.end())
                if any(span[0] < end and start < span[1] for start, end in taken):
                    continue
                taken.append(span)
                found.append(Entity(match.group(0), rule.entity_type, *span))
        return sorted(found, key=lambda entity: entity.start)


def extract_to_table(
    database: Any,
    source_table: str,
    text_column: str,
    target_table: str = "extracted_entities",
    key_column: str | None = None,
) -> int:
    """Run entity extraction over a table column into a structured table.

    Creates ``target_table(source_key VARCHAR, entity_type VARCHAR,
    entity_text VARCHAR)`` when missing; returns the number of entities
    stored. This is the Section II.C bridge from unstructured to
    structured data.
    """
    from repro.core import types as dt
    from repro.core.schema import schema as make_schema

    if not database.catalog.has_table(target_table):
        database.create_table(
            target_table,
            make_schema(
                ("source_key", dt.VARCHAR),
                ("entity_type", dt.VARCHAR),
                ("entity_text", dt.VARCHAR),
            ),
        )
    source = database.catalog.table(source_table)
    snapshot = database.txn_manager.last_committed_cid
    key_position = (
        source.schema.position(key_column) if key_column is not None else None
    )
    text_position = source.schema.position(text_column)
    extractor = EntityExtractor()
    rows = [
        [None if key_position is None else str(row[key_position]), entity.entity_type, entity.text]
        for row in source.scan_rows(snapshot)
        if row[text_position] is not None
        for entity in extractor.extract(str(row[text_position]))
    ]
    txn = database.begin()
    count = database.catalog.table(target_table).insert_many(rows, txn)
    database.commit(txn)
    return count


# --------------------------------------------------------------------------
# sentiment (lexicon based)
# --------------------------------------------------------------------------

POSITIVE_WORDS = frozenset(
    """good great excellent amazing love happy best fantastic wonderful
    positive improve improved gain strong success successful win winning
    reliable fast efficient profitable growth beat exceeded""".split()
)

NEGATIVE_WORDS = frozenset(
    """bad terrible awful hate worst poor negative fail failure failing
    loss lose losing weak slow broken unreliable bug bugs crash delay
    delayed decline missed problem problems defect""".split()
)

NEGATIONS = frozenset("not no never n't cannot without hardly".split())


def sentiment_score(text: str) -> float:
    """Signed sentiment in [-1, 1]; 0 is neutral. Handles negation."""
    total = 0
    hits = 0
    for sentence in sentences(text):
        tokens = tokenize(sentence)
        for index, token in enumerate(tokens):
            polarity = 0
            if token in POSITIVE_WORDS:
                polarity = 1
            elif token in NEGATIVE_WORDS:
                polarity = -1
            if polarity == 0:
                continue
            window = tokens[max(0, index - 3) : index]
            if any(previous in NEGATIONS for previous in window):
                polarity = -polarity
            total += polarity
            hits += 1
    if hits == 0:
        return 0.0
    return max(-1.0, min(1.0, total / hits))


def sentiment_label(text: str, threshold: float = 0.1) -> str:
    """'positive' / 'negative' / 'neutral'."""
    score = sentiment_score(text)
    if score > threshold:
        return "positive"
    if score < -threshold:
        return "negative"
    return "neutral"


# --------------------------------------------------------------------------
# Naive-Bayes text classification
# --------------------------------------------------------------------------


class NaiveBayesClassifier:
    """Multinomial Naive Bayes over stemmed tokens."""

    def __init__(self, smoothing: float = 1.0) -> None:
        self.smoothing = smoothing
        self._term_counts: dict[str, Counter[str]] = defaultdict(Counter)
        self._class_counts: Counter[str] = Counter()
        self._class_tokens: Counter[str] = Counter()
        self._vocabulary: set[str] = set()

    @property
    def classes(self) -> list[str]:
        return sorted(self._class_counts)

    def train(self, samples: Sequence[tuple[str, str]]) -> None:
        """Train on (text, label) pairs; may be called repeatedly."""
        for text, label in samples:
            tokens = tokenize_terms(text)
            self._class_counts[label] += 1
            for token in tokens:
                self._term_counts[label][token] += 1
                self._class_tokens[label] += 1
                self._vocabulary.add(token)

    def log_scores(self, text: str) -> dict[str, float]:
        """Per-class log posterior (unnormalised)."""
        if not self._class_counts:
            return {}
        tokens = tokenize_terms(text)
        total_docs = sum(self._class_counts.values())
        vocab = max(len(self._vocabulary), 1)
        scores: dict[str, float] = {}
        for label, doc_count in self._class_counts.items():
            score = log(doc_count / total_docs)
            denominator = self._class_tokens[label] + self.smoothing * vocab
            for token in tokens:
                numerator = self._term_counts[label][token] + self.smoothing
                score += log(numerator / denominator)
            scores[label] = score
        return scores

    def classify(self, text: str) -> str | None:
        """Most likely class, or ``None`` before training."""
        scores = self.log_scores(text)
        if not scores:
            return None
        return max(scores.items(), key=lambda item: item[1])[0]
