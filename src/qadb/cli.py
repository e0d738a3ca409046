"""Command-line entry point: build-db, retrieve, revise, eval, coverage.

Every command is a pure function of its config file, input files, and
seed; reruns write byte-identical outputs. Result-affecting parameters
live in the config file, paths in flags, and each output carries the
config fingerprint in its header. Exit codes: 0 success, 1 internal
error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import construction, jsonl, retrieval, revision
from .backend import Backend, RemoteBackend, StubBackend
from .config import RunConfig
from .corpus import load_corpus
from .database import QADatabase
from .errors import (ContractViolation, DuplicateId, EmbeddingDimMismatch, NonFiniteVectors,
                     ParseError, QADBError)
from .metrics import evaluate_longform, evaluate_retrieval_recall, load_examples


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _require_file(path: str, role: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise _CliError(2, f"{role} file not found: {path}")
    return p


@contextmanager
def _output_lock(directory: Path):
    """One run at a time writes into ``directory``: an exclusive flock on it, held until
    the block ends. The kernel drops it when the process exits, however it dies."""
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(directory, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise _CliError(1, f"output directory is locked by another run: {directory}") from None
        yield
    finally:
        os.close(fd)


def _load_config(args) -> RunConfig:
    if args.config:
        _require_file(args.config, "config")
        return RunConfig.from_file(args.config)
    return RunConfig()


def _make_backend(config: RunConfig) -> Backend:
    return RemoteBackend(config.backend_endpoint) if config.backend_endpoint else StubBackend()


def _read_jsonl(path: str, role: str, shape: dict) -> list[dict]:
    """An input file's records of the given shape, after an optional header line."""
    return [
        jsonl.check(row, shape, path, lineno)
        for lineno, row in jsonl.read(_require_file(path, role))
        if not (lineno == 1 and "header" in row)
    ]


def _load_gold(path: str) -> list:
    with open(_require_file(path, "gold"), encoding="utf-8") as fh:
        return load_examples(fh, path)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def cmd_build_db(args) -> int:
    config = _load_config(args)
    corpus = load_corpus(str(_require_file(args.corpus, "corpus")))
    backend = _make_backend(config)
    with _output_lock(Path(args.db).resolve().parent):
        db, report = construction.build_database(corpus, backend, args.checkpoint)
        db.save(args.db)
        report_payload = {
            "fingerprint": config.fingerprint(),
            **report.to_dict(),
            "stats": db.stats.to_dict(),
        }
        jsonl.write(args.report or f"{args.db}.report.json", [report_payload])
    print(
        f"built database: {report.detected} detected -> {report.generated} generated "
        f"-> {report.verified} verified -> {report.unique_questions} unique questions"
    )
    return 0


def cmd_retrieve(args) -> int:
    config = _load_config(args)
    queries = _read_jsonl(args.queries, "queries", {"query_id": (str, int), "question": str})

    embedder = None
    if config.retrieval_mode == "dense":
        embedder = retrieval.hashing_embedder(config.embedding_dim, config.seed)
    if args.embeddings and (embedder is None or config.retrieval_method == "direct"):
        raise _CliError(2, "--embeddings holds question vectors; only dense max/count read them")
    if config.retrieval_method == "direct":  # ranks passage texts; the database goes unread
        if not args.corpus:
            raise _CliError(2, "direct method needs --corpus to build the passage index")
        corpus = load_corpus(str(_require_file(args.corpus, "corpus")))
        index = retrieval.build_passage_index(corpus, embedder)
    else:
        if not args.db:
            raise _CliError(2, f"the {config.retrieval_method} method needs --db")
        _require_file(args.db, "database")
        dense_vectors = None
        if args.embeddings:
            try:
                embeddings = _require_file(args.embeddings, "embeddings")
                dense_vectors = retrieval.load_vectors(str(embeddings))
            except ValueError as exc:
                raise _CliError(2, str(exc)) from exc
        try:
            index = retrieval.open_index(args.db, embedder, dense_vectors=dense_vectors)
        except (EmbeddingDimMismatch, NonFiniteVectors) as exc:  # never from the hashing embedder
            raise _CliError(2, f"--embeddings {args.embeddings}: {exc}") from exc
    if config.retrieval_mode == "sparse":
        _ = index.sparse  # read the BM25 arrays at set-up, not inside the first query

    rows = []
    for query in queries:
        scored = retrieval.retrieve_passages(
            index,
            query["question"],
            method=config.retrieval_method,
            top_n=config.top_n,
            mode=config.retrieval_mode,
            k_questions=config.k_questions,
        )
        for rank, ps in enumerate(scored, start=1):
            rows.append(
                {
                    "query_id": query["query_id"],
                    "rank": rank,
                    "passage_id": ps.passage_id,
                    "score": ps.score,
                    "method": ps.method,
                }
            )
    header = {
        "fingerprint": config.fingerprint(),
        "method": config.retrieval_method,
        "mode": config.retrieval_mode,
        "k_questions": config.k_questions,
        "top_n": config.top_n,
    }
    with _output_lock(Path(args.out).resolve().parent):
        jsonl.write(args.out, [{"header": header}, *rows])
    print(f"wrote {len(rows)} result rows for {len(queries)} queries to {args.out}")
    return 0


def cmd_revise(args) -> int:
    config = _load_config(args)
    corpus = load_corpus(str(_require_file(args.corpus, "corpus")))
    inputs = _read_jsonl(
        args.questions, "questions", {"question": str, "answer": str, "passage_id": str}
    )
    backend = _make_backend(config)
    rows = []
    for row in inputs:
        passage = corpus.get(row["passage_id"])
        if passage is None:
            _warn(f"unknown passage_id {row['passage_id']!r}; record skipped")
            continue
        record = revision.revise_iterative(
            row["question"], row["answer"], passage, backend, config.max_revision_rounds
        )
        rows.append(record.to_record())
    header = {"fingerprint": config.fingerprint(), "max_rounds": config.max_revision_rounds}
    with _output_lock(Path(args.out).resolve().parent):
        jsonl.write(args.out, [{"header": header}, *rows])
    print(f"wrote {len(rows)} revision records to {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    examples = _load_gold(args.gold)
    if args.task == "retrieval":
        rows = _read_jsonl(
            args.results, "results", {"query_id": (str, int), "rank": int, "passage_id": str}
        )
        if not args.corpus:
            raise _CliError(2, "the retrieval task needs --corpus for passage texts")
        corpus = load_corpus(str(_require_file(args.corpus, "corpus")))
        ranked: dict[str, list[tuple[int, str]]] = {}
        for row in rows:
            ranked.setdefault(str(row["query_id"]), []).append((row["rank"], row["passage_id"]))
        retrieved_texts = {}
        for query_id, pairs in ranked.items():
            texts = []
            for _, pid in sorted(pairs):
                passage = corpus.get(pid)
                if passage is None:
                    _warn(f"results reference unknown passage {pid!r}")
                    continue
                texts.append(passage.text)
            retrieved_texts[query_id] = texts
        overlap = {e.query_id for e in examples} & set(retrieved_texts)
        if not overlap:
            raise _CliError(2, "no overlapping query ids between results and gold")
        report = evaluate_retrieval_recall(retrieved_texts, examples)
    else:  # longform; argparse admits no other task
        rows = _read_jsonl(args.results, "predictions", {"query_id": (str, int), "output": str})
        predictions = {str(row["query_id"]): row["output"] for row in rows}
        overlap = {e.query_id for e in examples} & set(predictions)
        if not overlap:
            raise _CliError(2, "no overlapping query ids between predictions and gold")
        report = evaluate_longform(predictions, examples, _make_backend(config),
                                   backend_label=config.backend_endpoint or "stub")

    for message in report.warnings:
        _warn(message)
    payload = {"fingerprint": config.fingerprint(), **report.to_dict()}
    del payload["per_query"]
    with _output_lock(Path(args.report).resolve().parent):
        jsonl.write(args.report, [payload])
        jsonl.write(
            args.per_query or f"{args.report}.per_query.jsonl",
            [
                {"header": {"fingerprint": config.fingerprint(), "task": report.task}},
                *({"query_id": qid, **row} for qid, row in sorted(report.per_query.items())),
            ],
        )
    for metric, value in sorted(report.macro.items()):
        print(f"{metric}: {value:.4f}")
    return 0


def cmd_coverage(args) -> int:
    config = _load_config(args)
    db = QADatabase.load(_require_file(args.db, "database"))
    examples = _load_gold(args.gold)
    fraction = db.answer_coverage(examples)
    payload = {
        "fingerprint": config.fingerprint(),
        "coverage": fraction,
        "examples": len(examples),
    }
    if args.out:
        with _output_lock(Path(args.out).resolve().parent):
            jsonl.write(args.out, [payload])
    print(f"answer coverage: {fraction:.4f} ({100 * fraction:.1f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qadb",
        description="Question-answer database construction, retrieval, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-db", help="run the construction pipeline over a corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", required=True)
    p.add_argument("--db", required=True, help="output database file")
    p.add_argument("--report", default=None, help="funnel report path (default: <db>.report.json)")
    p.add_argument("--checkpoint", default=None, help="resumable candidate-record file")
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("retrieve", help="rank passages for a query file")
    p.add_argument("--config", default=None)
    p.add_argument("--db", default=None, help="needed by the max and count methods")
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", default=None, help="needed for the direct baseline")
    p.add_argument("--embeddings", default=None, help="precomputed question vectors")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("revise", help="iteratively revise (question, answer, passage) rows")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_revise)

    p = sub.add_parser("eval", help="score retrieval results or long-form answers")
    p.add_argument("--config", default=None)
    p.add_argument("--task", required=True, choices=["retrieval", "longform"])
    p.add_argument("--results", required=True, help="retrieval results or predictions file")
    p.add_argument("--gold", required=True)
    p.add_argument("--corpus", default=None, help="needed for the retrieval task")
    p.add_argument("--report", required=True)
    p.add_argument("--per-query", dest="per_query", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coverage", help="gold-answer coverage of a database")
    p.add_argument("--config", default=None)
    p.add_argument("--db", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, DuplicateId, ContractViolation, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QADBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
