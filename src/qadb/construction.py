"""Three-stage QA-pair construction: detect answers, generate, verify.

Stage 1 proposes answer spans with beam search and keeps only spans that
literally occur in the passage, merging spans that are identical after
normalization. Stage 2 generates one question per surviving answer with
greedy decoding and requires the model to repeat its target answer.
Stage 3 re-reads the passage with the generated question and drops pairs
whose predicted answer is "not answerable" or differs from the target.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from hashlib import blake2b

from . import jsonl
from .backend import (
    BEAM,
    NOT_ANSWERABLE,
    Backend,
    GenerationRequest,
    detection_prompt,
    question_generation_prompt,
    reading_qa_prompt,
)
from .corpus import Corpus, Passage
from .database import CandidateQA, QADatabase, merge_questions
from .errors import ParseError
from .metrics import normalize_answer

logger = logging.getLogger(__name__)

DEFAULT_BEAM = 32

REJECT_UNPARSEABLE = "unparseable_output"
REJECT_ANSWER_MISMATCH = "answer_mismatch"
REJECT_EMPTY_QUESTION = "empty_question"

_QG_OUTPUT = re.compile(r"^answer:\s*(.*?)\s*question:\s*(.*)$", re.DOTALL)


@dataclass(frozen=True)
class Rejection:
    """A question-generation output that failed the acceptance rules."""

    passage_id: str
    answer: str
    reason: str


@dataclass
class FunnelReport:
    """Stage counts of one construction run (the detect/generate/verify funnel)."""

    passages: int = 0
    detected: int = 0
    generated: int = 0
    verified: int = 0
    unique_questions: int = 0
    rejections: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def detect_answers(passage: Passage, backend: Backend) -> list[str]:
    """Stage 1: propose answer spans from a passage.

    One backend call for ``DEFAULT_BEAM`` beam-decoded candidates.
    Candidates that are not literal substrings of the passage are dropped;
    candidates identical after normalization are merged, keeping the
    highest-ranked surface form. Output preserves backend rank order.
    """
    [response] = backend.generate_batch(
        [GenerationRequest(detection_prompt(passage.text), max_candidates=DEFAULT_BEAM,
                           decode_mode=BEAM)]
    )
    detected = []
    seen: set[str] = set()
    for span in response.candidates:
        if not span or span not in passage.text:
            continue
        key = normalize_answer(span)
        if key in seen:
            continue
        seen.add(key)
        detected.append(span)
    return detected


def generate_question(
    passage: Passage, answers: Sequence[str], backend: Backend
) -> list[CandidateQA | Rejection]:
    """Stage 2: one greedily decoded question per detected answer, in one batch.

    An output must parse as ``answer: <a'> question: <q>`` and repeat its
    target answer (compared after normalization); otherwise the pair is
    rejected, never raised.
    """
    responses = backend.generate_batch(
        [
            GenerationRequest(question_generation_prompt(answer, passage.title, passage.text))
            for answer in answers
        ]
    )
    return [_accept(passage, answer, r.candidates[0]) for answer, r in zip(answers, responses)]


def _accept(passage: Passage, answer: str, output: str) -> CandidateQA | Rejection:
    match = _QG_OUTPUT.match(output)
    if not match:
        return Rejection(passage.id, answer, REJECT_UNPARSEABLE)
    echoed, question = match.group(1).strip(), match.group(2).strip()
    if normalize_answer(echoed) != normalize_answer(answer):
        return Rejection(passage.id, answer, REJECT_ANSWER_MISMATCH)
    if not question:
        return Rejection(passage.id, answer, REJECT_EMPTY_QUESTION)
    if not question.endswith("?"):
        question += "?"
    return CandidateQA(passage.id, answer, question, verified=False)


def verify(passage: Passage, candidates: Sequence[CandidateQA], backend: Backend) -> list[bool]:
    """Stage 3: machine-reading check of generated questions, in one batch.

    A pair fails when the backend predicts "not answerable" or an answer
    that differs from the original after normalization.
    """
    responses = backend.generate_batch(
        [GenerationRequest(reading_qa_prompt(qa.question, passage.text)) for qa in candidates]
    )
    return [
        r.candidates[0] != NOT_ANSWERABLE
        and normalize_answer(r.candidates[0]) == normalize_answer(qa.answer)
        for qa, r in zip(candidates, responses)
    ]


def _digest(passage: Passage) -> str:
    text = jsonl.dumps([passage.title, passage.text]).encode("utf-8")
    return blake2b(text, digest_size=8).hexdigest()


def _process_passage(passage: Passage, backend: Backend) -> dict:
    """Run the three stages over one passage, one backend call per stage that
    has anything to ask; the result is its checkpoint row."""
    answers = detect_answers(passage, backend)
    outcomes = generate_question(passage, answers, backend) if answers else []
    candidates = [outcome for outcome in outcomes if isinstance(outcome, CandidateQA)]
    verdicts = verify(passage, candidates, backend) if candidates else []
    rejected = [outcome for outcome in outcomes if isinstance(outcome, Rejection)]
    for outcome in rejected:
        logger.debug("rejected answer %r from %s: %s", outcome.answer, passage.id, outcome.reason)
    return {
        "passage_id": passage.id,
        "digest": _digest(passage),
        "detected": len(answers),
        "rejections": dict(Counter(outcome.reason for outcome in rejected)),
        "verified": [{"answer": qa.answer, "question": qa.question}
                     for qa, ok in zip(candidates, verdicts) if ok],
    }


_ROW = {"passage_id": str, "digest": str, "detected": int, "rejections": dict,
        "verified": [{"answer": str, "question": str}]}
_REASONS = {REJECT_UNPARSEABLE, REJECT_ANSWER_MISMATCH, REJECT_EMPTY_QUESTION}


def _tallies_fit(row: dict) -> bool:
    """Whether ``_process_passage`` could have written the row's tallies."""
    counts = row["rejections"]
    return (counts.keys() <= _REASONS and all(type(n) is int and n >= 1 for n in counts.values())
            and row["detected"] - sum(counts.values()) >= len(row["verified"]))


def _verified(row: dict) -> list[CandidateQA]:
    return [CandidateQA(row["passage_id"], qa["answer"], qa["question"], verified=True)
            for qa in row["verified"]]


def build_database(
    corpus: Corpus, backend: Backend, checkpoint: str | None = None
) -> tuple[QADatabase, FunnelReport]:
    """Run all three stages over a corpus and merge the survivors.

    With a ``checkpoint`` path, each finished passage appends one row (its
    tallies and verified pairs, bound to the passage's title and text by a
    digest) to an append-only file, and a rerun skips the passages found
    there. A backend failure aborts the run with the checkpoint intact, so
    the run resumes by passage id and content; a row torn by a crash is
    dropped and its passage processed again, and a second row for one
    passage is refused.
    """
    entries, log = jsonl.open_log(checkpoint) if checkpoint else ([], nullcontext())
    with log:
        rows, verified, done = [], [], set()
        for lineno, row in entries:
            where = f"{checkpoint}: line {lineno}"
            jsonl.check(row, _ROW, checkpoint, lineno)
            passage = corpus.get(row["passage_id"])
            if row.keys() != _ROW.keys() or passage is None or row["digest"] != _digest(passage):
                raise ParseError(f"{where}: not a checkpoint row of this corpus")
            if not _tallies_fit(row):
                raise ParseError(f"{where}: tallies that no build could have written")
            if row["passage_id"] in done:
                raise ParseError(f"{where}: a second row for passage {row['passage_id']!r}")
            done.add(row["passage_id"])
            try:
                verified += _verified(row)
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            rows.append(row)
        pending = [p for p in corpus if p.id not in done]

        for passage in pending:
            row = _process_passage(passage, backend)
            rows.append(row)
            verified += _verified(row)
            if checkpoint:
                log.write(jsonl.dumps(row) + "\n")
                log.flush()

    rejections: Counter = Counter()
    for row in rows:
        rejections.update(row["rejections"])
    detected = sum(row["detected"] for row in rows)
    generated = detected - rejections.total()  # each answer yields a candidate or a rejection
    db = merge_questions(verified)
    return db, FunnelReport(len(corpus), detected, generated, len(verified), len(db),
                            dict(rejections))
