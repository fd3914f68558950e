"""Seeded input generators for the three benchmark workloads.

The generators read only the bundled data files (``mini_gold.tsv`` and
``stopwords.tsv``) and never import the tagger: the program under test
sees nothing but the generated text.  The same seed always gives the
same inputs.

* ``dense-1mb``: the mini_gold sentences joined with `` ۔ `` until the text
  reaches 1 MB, the construction of acceptance criterion 7.  It is the
  ROADMAP headline input; entity-dense, so the cascade matchers, gazetteer
  lookups and conflict resolution do most of the work.  The text does not
  depend on the seed; the seed picks the store queries.
* ``sparse-lines``: lines of 8-30 tokens drawn Zipf-style from the
  stopwords plus about 20k synthesized Arabic-script words, with a
  mini_gold sentence spliced into about 15% of them.  Scan gates reject
  almost every position, so tokenization and per-call costs dominate.
* ``store-20k``: 20,000 lines from the ``sparse-lines`` generator on a
  separate seed stream, tagged before any store timing starts.  It is the
  workload for the corpus store: append, reopen and query.
"""

from __future__ import annotations

import bisect
import itertools
import random
from pathlib import Path
from typing import Iterator, List

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "sindhi_ner" / "data"

DENSE_BYTES = 1_000_000
SPARSE_BLOCK_BYTES = 1_000_000
STORE_DOCS = 20_000

SYNTH_WORDS = 20_000
ZIPF_EXPONENT = 1.05
SPLICE_SHARE = 0.15
LINE_TOKENS = (8, 30)

# Arabic-script letters used in Sindhi orthography, for synthesized words.
LETTERS = ("ا ب ٻ ڀ ت ٿ ٽ ٺ ث پ ج ڄ جھ ڃ چ ڇ ح خ د ڌ ڏ ڊ ڍ ذ ر ڙ ز س ش "
            "ص ض ط ظ ع غ ف ڦ ق ڪ ک گ ڳ گھ ڱ ل م ن ڻ و ه ي").split()

WORKLOADS = ("dense-1mb", "sparse-lines", "store-20k")


def gold_sentences() -> List[str]:
    """mini_gold documents as space-joined token strings, in file order."""
    sentences, tokens = [], []
    with open(DATA_DIR / "mini_gold.tsv", encoding="utf-8-sig") as fh:
        for raw in fh:
            line = raw.rstrip("\r\n")
            if not line.strip():
                if tokens:
                    sentences.append(" ".join(tokens))
                    tokens = []
                continue
            token = line.split("\t")[0].strip()
            if token != "-DOCSTART-":
                tokens.append(token)
    if tokens:
        sentences.append(" ".join(tokens))
    return sentences


def stopwords() -> List[str]:
    words = []
    with open(DATA_DIR / "stopwords.tsv", encoding="utf-8-sig") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                words.append(line.split("\t")[0].strip())
    return words


def dense_text() -> str:
    """Acceptance criterion 7's input: gold sentences repeated to 1 MB."""
    chunk = " ۔ ".join(gold_sentences())
    text = chunk
    while len(text.encode("utf-8")) < DENSE_BYTES:
        text += " ۔ " + chunk
    return text


class LineGenerator:
    """Endless seeded stream of sparse lines.

    The vocabulary is the stopword list (most frequent ranks) followed by
    synthesized words; ranks are drawn with weight ``1 / rank**s``.
    """

    def __init__(self, seed, stream: str):
        self.rng = random.Random(f"{seed}:{stream}")
        self.splices = gold_sentences()
        synth = set()
        while len(synth) < SYNTH_WORDS:
            length = self.rng.choice((2, 3, 3, 4, 4, 4, 5, 5, 6, 7, 8))
            synth.add("".join(self.rng.choice(LETTERS) for _ in range(length)))
        synth = sorted(synth)
        self.rng.shuffle(synth)
        self.vocab = stopwords() + synth
        self.cum = list(itertools.accumulate(
            1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(self.vocab) + 1)))

    def _word(self) -> str:
        pick = self.rng.random() * self.cum[-1]
        return self.vocab[bisect.bisect_right(self.cum, pick)]

    def line(self) -> str:
        words = [self._word() for _ in range(self.rng.randint(*LINE_TOKENS))]
        if self.rng.random() < SPLICE_SHARE:
            at = self.rng.randint(0, len(words))
            words[at:at] = [self.rng.choice(self.splices)]
        return " ".join(words)

    def block(self, min_bytes: int) -> List[str]:
        lines, size = [], 0
        while size < min_bytes:
            line = self.line()
            lines.append(line)
            size += len(line.encode("utf-8"))
        return lines

    def lines(self, count: int) -> List[str]:
        return [self.line() for _ in range(count)]


class Workload:
    """The documents of one workload run.

    ``first`` is the fixed block whose output is digested and stored;
    ``more()`` yields further documents for the rest of the timed tag
    phase, which gets ``tag_share`` of the run's seconds.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self._gen = None
        # Share of the run's seconds for the tag phase; the store cycles get
        # the rest.  store-20k's store cycles are the longest and its
        # primary metrics, so it gives them half the run.
        self.tag_share = 0.5 if name == "store-20k" else 0.7
        if name == "dense-1mb":
            self.first = [dense_text()]
        elif name == "sparse-lines":
            self._gen = LineGenerator(seed, "sparse-lines")
            self.first = self._gen.block(SPARSE_BLOCK_BYTES)
        else:
            self._gen = LineGenerator(seed, "store-20k")
            self.first = self._gen.lines(STORE_DOCS)
        self.query_rng = random.Random(f"{seed}:{name}:queries")

    def more(self) -> Iterator[str]:
        """Further documents: the dense text again, or fresh lines."""
        if self.name == "dense-1mb":
            while True:
                yield self.first[0]
        while True:
            yield from self._gen.block(SPARSE_BLOCK_BYTES)


def distinct_chunk_share(docs: List[str]) -> float:
    """Distinct whitespace-separated chunks over all chunks."""
    seen, total = set(), 0
    for doc in docs:
        chunks = doc.split()
        total += len(chunks)
        seen.update(chunks)
    return len(seen) / total if total else 0.0
