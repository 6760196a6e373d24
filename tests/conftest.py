import json

import pytest

from rcforecast.corpus import load_corpus

#: ``ACCEPTANCE <n>: PASS|FAIL`` lines recorded by the acceptance suite
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def paper(pid, year, refs=(), doc_type="article", journal_id=None, terms=()):
    return {
        "paper_id": pid,
        "year": year,
        "doc_type": doc_type,
        "journal_id": journal_id,
        "references": list(refs),
        "terms": list(terms),
    }


def write_papers(path, papers):
    with open(path, "w") as fh:
        for p in papers:
            fh.write(json.dumps(p) + "\n")
    return path


def write_journals(path, rows):
    """rows: (journal_id, citescore_rank, eigenfactor_rank) with None for blanks."""
    with open(path, "w") as fh:
        fh.write("journal_id,citescore_rank,eigenfactor_rank\n")
        for jid, cs, eig in rows:
            fh.write(f"{jid},{'' if cs is None else cs},{'' if eig is None else eig}\n")
    return path


@pytest.fixture
def corpus_factory(tmp_path):
    counter = [0]

    def make(papers, journals=None):
        counter[0] += 1
        ppath = write_papers(tmp_path / f"papers{counter[0]}.jsonl", papers)
        jpath = None
        if journals is not None:
            jpath = write_journals(tmp_path / f"ranks{counter[0]}.csv", journals)
        return load_corpus(ppath, jpath)

    return make
