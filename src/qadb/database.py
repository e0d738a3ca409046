"""The merged question database: unique questions, answers, provenance.

A verified (question, answer, passage) record stream is merged into
unique questions keyed by "word matching": lowercased question text with
punctuation stripped and whitespace collapsed (token order preserved; a
bag-of-words key would merge more aggressively and is deliberately not
used). Each question keeps one or more normalized-distinct answers, and
each answer keeps the set of passages it was generated from, which is
exactly the provenance relation retrieval aggregates over.
"""

from __future__ import annotations

import string
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from . import jsonl
from .errors import ContractViolation, CorruptDatabase, FormatVersionError
from .metrics import EvalExample, normalize_answer

FORMAT_NAME = "qadb"
FORMAT_VERSION = 1

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

_QUESTION = {"qid": int, "question": str,
             "answers": [{"text": str, "passage_ids": [str], "mentions": int}]}


def question_merge_key(question: str) -> str:
    """Merge key for question text: lowercase, strip punctuation, collapse spaces."""
    return " ".join(question.lower().translate(_PUNCT_TABLE).split())


@dataclass(frozen=True)
class AnswerEntry:
    """One unique answer of a merged question.

    ``mentions`` counts pre-dedup records that carried this answer, so
    database statistics stay recomputable from the questions alone.
    """

    text: str
    passage_ids: tuple[str, ...]
    mentions: int

    def to_record(self) -> dict:
        return {
            "text": self.text,
            "passage_ids": list(self.passage_ids),
            "mentions": self.mentions,
        }


@dataclass(frozen=True)
class MergedQuestion:
    qid: int
    question: str
    answers: tuple[AnswerEntry, ...]

    @property
    def mention_count(self) -> int:
        return sum(entry.mentions for entry in self.answers)

    @property
    def passage_ids(self) -> set[str]:
        return {pid for entry in self.answers for pid in entry.passage_ids}

    def to_record(self) -> dict:
        return {
            "qid": self.qid,
            "question": self.question,
            "answers": [entry.to_record() for entry in self.answers],
        }


@dataclass(frozen=True)
class DatabaseStats:
    unique_questions: int
    multi_mention_questions: int
    multi_answer_questions: int

    def to_dict(self) -> dict:
        return {
            "unique_questions": self.unique_questions,
            "multi_mention_questions": self.multi_mention_questions,
            "multi_answer_questions": self.multi_answer_questions,
        }


def _compute_stats(questions: Sequence[MergedQuestion]) -> DatabaseStats:
    return DatabaseStats(
        unique_questions=len(questions),
        multi_mention_questions=sum(1 for q in questions if q.mention_count > 1),
        multi_answer_questions=sum(1 for q in questions if len(q.answers) > 1),
    )


class QADatabase:
    """Immutable merged-question database; provenance lives in the answers."""

    def __init__(self, questions: Sequence[MergedQuestion]):
        self.questions: tuple[MergedQuestion, ...] = tuple(questions)
        self.stats = _compute_stats(self.questions)

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self):
        return iter(self.questions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QADatabase):
            return NotImplemented
        return self.questions == other.questions

    def normalized_answers(self) -> set[str]:
        return {
            normalize_answer(entry.text)
            for question in self.questions
            for entry in question.answers
        }

    def answer_coverage(self, gold: Sequence[EvalExample]) -> float:
        """Fraction of gold answers whose normalized form the database contains.

        Whole-string equality after normalization (not substring matching);
        each example's answers are counted once via normalized dedup.
        """
        if not gold:
            raise ContractViolation("answer_coverage requires at least one example")
        known = self.normalized_answers()
        total = 0
        matched = 0
        for example in gold:
            for answer in {normalize_answer(a) for a in example.gold_answers}:
                total += 1
                if answer in known:
                    matched += 1
        return matched / total

    def flatten(self) -> list["CandidateQA"]:
        """Expand back to verified candidate records; re-merging reproduces self."""
        from .construction import CandidateQA  # circular at import time only

        records = []
        for question in self.questions:
            for entry in question.answers:
                pids = list(entry.passage_ids)
                # one record per provenance passage, then repeat the first
                # passage to preserve the mention count
                pids += [pids[0]] * (entry.mentions - len(pids))
                for pid in pids:
                    records.append(
                        CandidateQA(
                            passage_id=pid,
                            answer=entry.text,
                            question=question.question,
                            verified=True,
                        )
                    )
        return records

    def save(self, path: str | Path) -> None:
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "question_count": len(self.questions),
            "stats": self.stats.to_dict(),
        }
        jsonl.write(path, [header, *(question.to_record() for question in self.questions)])

    @classmethod
    def load(cls, source: str | Path | TextIO) -> "QADatabase":
        records = jsonl.read(source, CorruptDatabase)
        path = source if isinstance(source, (str, Path)) else getattr(source, "name", source)
        _, header = next(records, (0, None))
        if header is None:
            raise CorruptDatabase(f"{path}: empty file")
        if header.get("format") != FORMAT_NAME:
            raise CorruptDatabase(f"{path}: not a {FORMAT_NAME} file")
        version = header.get("version")
        if version != FORMAT_VERSION:
            raise FormatVersionError(
                f"{path}: format version {version} (this build reads {FORMAT_VERSION})"
            )
        questions = []
        for lineno, record in records:
            jsonl.check(record, _QUESTION, path, lineno, CorruptDatabase)
            qid = record["qid"]
            if questions and qid <= questions[-1].qid:
                raise CorruptDatabase(f"{path}: line {lineno}: qid {qid} after "
                                      f"{questions[-1].qid}; qids must ascend")
            if not record["answers"]:
                raise CorruptDatabase(f"{path}: line {lineno}: a question without answers")
            if not all(entry["passage_ids"] for entry in record["answers"]):
                raise CorruptDatabase(f"{path}: line {lineno}: an answer without passage_ids")
            answers = (AnswerEntry(entry["text"], tuple(entry["passage_ids"]), entry["mentions"])
                       for entry in record["answers"])
            questions.append(MergedQuestion(qid, record["question"], tuple(answers)))
        expected = header.get("question_count", 0)
        if len(questions) != expected:
            raise CorruptDatabase(
                f"{path}: expected {expected} question records, found {len(questions)}"
            )
        db = cls(questions)
        if db.stats.to_dict() != header.get("stats"):
            raise CorruptDatabase(f"{path}: stored stats disagree with records")
        return db


def merge_questions(records: Iterable) -> QADatabase:
    """Merge verified candidate records into a question database.

    Grouping is by ``question_merge_key``; within a group answers are
    deduplicated by ``normalize_answer`` with provenance unioned. Stored
    surface forms (question and answer alike) are the lexicographically
    smallest originals, and qids are assigned in merge-key order, so the
    result is independent of record order.
    """
    groups: dict[str, list] = {}
    for record in records:
        if not record.verified:
            raise ContractViolation(
                f"merge_questions requires verified records; got unverified "
                f"question {record.question!r}"
            )
        groups.setdefault(question_merge_key(record.question), []).append(record)

    questions = []
    for qid, key in enumerate(sorted(groups)):
        group = groups[key]
        surface = min(record.question for record in group)
        by_answer: dict[str, dict] = {}
        for record in group:
            akey = normalize_answer(record.answer)
            slot = by_answer.setdefault(
                akey, {"surfaces": set(), "passages": set(), "mentions": 0}
            )
            slot["surfaces"].add(record.answer)
            slot["passages"].add(record.passage_id)
            slot["mentions"] += 1
        answers = tuple(
            AnswerEntry(
                text=min(slot["surfaces"]),
                passage_ids=tuple(sorted(slot["passages"])),
                mentions=slot["mentions"],
            )
            for _, slot in sorted(by_answer.items())
        )
        questions.append(MergedQuestion(qid=qid, question=surface, answers=answers))
    return QADatabase(questions)
