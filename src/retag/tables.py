"""Table data model, linearization, question templates, and word vocabularies.

Linearization grammar::

    TITLE : <title> SECTION : <section> HEAD : h1 | h2 | ... ROW 1 : c11 | c12 | ... ROW 2 : ...

Highlighted cell values are wrapped as ``<hl> value </hl>``. Reserved atoms
occurring inside rendered values are escaped with a backslash prefix (and
backslashes themselves are doubled), which keeps the rendering injective.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import DataError

CATEGORIES = ("descriptive", "tabular", "numerical", "temporal", "commonsense", "entity")
ANALYTICAL_CATEGORIES = ("tabular", "numerical", "temporal", "commonsense", "entity")
SPLITS = ("train", "valid", "test")

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>", "<hl>", "</hl>")

_RESERVED_ATOMS = ("TITLE :", "SECTION :", "HEAD :", "ROW", "|", "<hl>", "</hl>")


def validate_categories(categories: Iterable[str]) -> frozenset[str]:
    cats = frozenset(categories)
    if not cats:
        raise DataError("category set must be non-empty")
    unknown = cats - set(CATEGORIES)
    if unknown:
        raise DataError(f"unknown categories: {sorted(unknown)}")
    if "descriptive" in cats and len(cats) > 1:
        raise DataError("descriptive is exclusive and cannot combine with other categories")
    return cats


def canonical_categories(categories: Iterable[str]) -> list[str]:
    cats = validate_categories(categories)
    return [c for c in CATEGORIES if c in cats]


@dataclass(frozen=True)
class Table:
    id: str
    title: str
    section_title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.headers:
            raise DataError(f"table {self.id}: headers must be non-empty")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise DataError(f"table {self.id}: row {i} has {len(row)} cells, expected {len(self.headers)}")


@dataclass(frozen=True)
class Instance:
    table: Table
    highlights: tuple[tuple[int, int], ...]
    reference: str
    categories: frozenset[str]
    split: str = "train"

    def __post_init__(self):
        if not self.reference:
            raise DataError("reference must be non-empty")
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}")
        object.__setattr__(self, "categories", validate_categories(self.categories))
        object.__setattr__(self, "highlights", _check_highlights(self.table, self.highlights))

    @property
    def kind(self) -> str:
        return "descriptive" if self.categories == {"descriptive"} else "analytical"


def _check_highlights(table: Table, highlights) -> tuple[tuple[int, int], ...]:
    seen = set()
    for r, c in highlights:
        if not (0 <= r < len(table.rows) and 0 <= c < len(table.headers)):
            raise DataError(f"highlight ({r}, {c}) outside a {len(table.rows)}x{len(table.headers)} grid")
        if (r, c) in seen:
            raise DataError(f"duplicate highlight ({r}, {c})")
        seen.add((r, c))
    return tuple(sorted(seen))


# -- linearization ------------------------------------------------------------


def _escape(value: str) -> str:
    out = value.replace("\\", "\\\\")
    for atom in _RESERVED_ATOMS:
        out = out.replace(atom, "\\" + atom)
    return out


def linearize(table: Table, highlights: Iterable[tuple[int, int]] = ()) -> str:
    """Render a table to its token string, wrapping highlighted cells."""
    marked = _check_highlights(table, tuple(highlights))
    hl = set(marked)
    parts = ["TITLE :", _escape(table.title), "SECTION :", _escape(table.section_title)]
    parts.append("HEAD : " + " | ".join(_escape(h) for h in table.headers))
    for r, row in enumerate(table.rows):
        cells = []
        for c, cell in enumerate(row):
            rendered = _escape(cell)
            if (r, c) in hl:
                rendered = f"<hl> {rendered} </hl>"
            cells.append(rendered)
        parts.append(f"ROW {r + 1} : " + " | ".join(cells))
    return " ".join(parts)


# -- question templates --------------------------------------------------------

STRATEGIES = ("notags", "tags", "retag")


def build_question(strategy: str, categories: Iterable[str]) -> str:
    """Render the instruction carrying (or hiding) the reasoning tags."""
    if strategy not in STRATEGIES:
        raise DataError(f"unknown strategy {strategy!r}")
    cats = canonical_categories(categories)
    if strategy == "notags":
        return "Generate a sentence based on the following table?"
    if cats == ["descriptive"]:
        return "Generate a descriptive sentence based on the following table?"
    return f"Generate a sentence with {', '.join(cats)} reasoning based on the following table?"


def build_input(question: str, linearized: str) -> str:
    if not question or not linearized:
        raise DataError("question and linearized table must both be non-empty")
    return f"{question} {linearized}"


# -- tokenization and vocabulary -------------------------------------------------

_TOKEN_RE = re.compile(r"</hl>|<hl>|[a-z0-9]+|[^\sa-z0-9]")


def tokenize(text: str) -> list[str]:
    """Lowercased word/punctuation tokens; highlight markers stay atomic."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocab:
    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary tokens must be unique")
        if tuple(self.id_to_token[:6]) != SPECIAL_TOKENS:
            raise DataError(f"vocabulary must start with the specials {SPECIAL_TOKENS}")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id


def build_vocab(corpus: Iterable[str]) -> Vocab:
    """Count tokens over a corpus; keep every token seen.

    Non-special tokens are ordered by (count desc, token asc) so id
    assignment is a pure function of the corpus.
    """
    counts: dict[str, int] = {}
    empty = True
    for text in corpus:
        empty = False
        for tok in tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
    if empty:
        raise DataError("cannot build a vocabulary from an empty corpus")
    kept = [t for t in counts if t not in SPECIAL_TOKENS]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(list(SPECIAL_TOKENS) + kept)


def encode_text(vocab: Vocab, text: str) -> list[int]:
    ids = [vocab.token_to_id.get(tok, UNK) for tok in tokenize(text)]
    return [BOS] + ids + [EOS]


def decode_text(vocab: Vocab, ids: Iterable[int]) -> str:
    words = []
    for i in ids:
        i = int(i)
        if not 0 <= i < len(vocab):
            raise IndexError(f"token id {i} out of range for vocabulary of {len(vocab)}")
        if i >= len(SPECIAL_TOKENS):
            words.append(vocab.id_to_token[i])
    return " ".join(words)


# -- JSONL ingestion -------------------------------------------------------------


def instance_to_record(instance: Instance) -> dict:
    return {
        "id": instance.table.id,
        "title": instance.table.title,
        "section_title": instance.table.section_title,
        "headers": list(instance.table.headers),
        "rows": [list(r) for r in instance.table.rows],
        "highlighted": [list(h) for h in instance.highlights],
        "reference": instance.reference,
        "categories": canonical_categories(instance.categories),
        "split": instance.split,
    }


def instance_from_record(record: dict) -> Instance:
    try:
        table = Table(
            id=str(record["id"]),
            title=str(record["title"]),
            section_title=str(record["section_title"]),
            headers=tuple(str(h) for h in record["headers"]),
            rows=tuple(tuple(str(c) for c in row) for row in record["rows"]),
        )
        return Instance(
            table=table,
            highlights=tuple((int(r), int(c)) for r, c in record["highlighted"]),
            reference=str(record["reference"]),
            categories=frozenset(record["categories"]),
            split=str(record.get("split", "train")),
        )
    except KeyError as exc:
        raise DataError(f"instance record missing field {exc}") from None


def write_jsonl(path: str | Path, instances: Iterable[Instance]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_record(inst), ensure_ascii=False) + "\n")
            n += 1
    return n


def read_jsonl(path: str | Path) -> list[Instance]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: bad JSON ({exc})") from None
            out.append(instance_from_record(record))
    return out
