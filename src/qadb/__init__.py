"""qadb: question-answer databases for ambiguous questions.

Build a database of machine-generated QA pairs from a passage corpus,
retrieve passages indirectly through their generated questions, revise
questions with answer-specific detail, and evaluate multi-answer
retrieval and long-form disambiguation outputs.
"""

from .backend import (
    GenerationRequest,
    GenerationResponse,
    RemoteBackend,
    StubBackend,
)
from .construction import (
    FunnelReport,
    Rejection,
    build_database,
    detect_answers,
    generate_question,
    verify,
)
from .corpus import Corpus, Passage, chunk_document, ingest_passages, load_corpus, save_corpus
from .database import (
    AnswerEntry,
    CandidateQA,
    MergedQuestion,
    QADatabase,
    merge_questions,
    question_merge_key,
)
from .metrics import (
    EvalExample,
    EvalReport,
    answer_recall_at_k,
    disambig_f1,
    dr_score,
    edit_f1,
    evaluate_longform,
    evaluate_retrieval_recall,
    normalize_answer,
    rouge_l,
    str_em,
    token_f1,
)
from .retrieval import (
    PassageScore,
    QuestionIndex,
    RetrievalHit,
    build_index,
    build_passage_index,
    hashing_embedder,
    index_arrays,
    open_index,
    retrieve_passages,
    retrieve_questions,
    score_passages_count,
    score_passages_max,
)
from .revision import RevisionRecord, assemble_longform_input, revise_iterative, revise_once

__version__ = "0.1.0"

__all__ = [
    "AnswerEntry",
    "CandidateQA",
    "Corpus",
    "EvalExample",
    "EvalReport",
    "FunnelReport",
    "GenerationRequest",
    "GenerationResponse",
    "MergedQuestion",
    "Passage",
    "PassageScore",
    "QADatabase",
    "QuestionIndex",
    "Rejection",
    "RemoteBackend",
    "RetrievalHit",
    "RevisionRecord",
    "StubBackend",
    "answer_recall_at_k",
    "assemble_longform_input",
    "build_database",
    "build_index",
    "build_passage_index",
    "chunk_document",
    "detect_answers",
    "disambig_f1",
    "dr_score",
    "edit_f1",
    "evaluate_longform",
    "evaluate_retrieval_recall",
    "generate_question",
    "hashing_embedder",
    "index_arrays",
    "ingest_passages",
    "load_corpus",
    "merge_questions",
    "normalize_answer",
    "open_index",
    "question_merge_key",
    "retrieve_passages",
    "retrieve_questions",
    "revise_iterative",
    "revise_once",
    "rouge_l",
    "save_corpus",
    "score_passages_count",
    "score_passages_max",
    "str_em",
    "token_f1",
    "verify",
]
