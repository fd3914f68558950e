"""Acceptance gate: one test per shipping criterion.

Each test is self-contained and checks its criterion at the stated
tolerance; the terminal summary prints a PASS/FAIL line per criterion.
"""

import json
import random
import time

from sindhi_ner.corpus import (
    CorpusStore,
    EvalReport,
    evaluate,
    load_gold,
    score_labels,
)
from sindhi_ner.gazetteer import Category, lookup_longest
from sindhi_ner.pipeline import DATA_DIR, render
from sindhi_ner.rules import RuleId, TagLabel
from sindhi_ner.text import tokenize

from test_gazetteer import brute_force_lookup, make_gazetteer

CRITERIA = {
    "test_golden_sentences_under_a_second": (
        1, "twenty-plus golden sentences tag correctly in under one second"),
    "test_bundled_corpus_scores_100": (
        2, "bundled gold corpus covers all twelve labels and scores 100.00%"),
    "test_scoring_arithmetic_oracle": (
        3, "token-level scores match an independent recount on 1,000 random pairs"),
    "test_partition_fuzz": (
        4, "entities plus untagged partition the tokens on 10,000 random inputs"),
    "test_lookup_matches_brute_force": (
        5, "longest-match lookup agrees with brute force on 500 random gazetteers"),
    "test_clock_times_exhaustive": (
        6, "every HH:MM from 00:00 to 99:99 is TIME exactly when in range"),
    "test_megabyte_throughput_and_determinism": (
        7, "a one-megabyte document tags deterministically at >= 1 MB/s"),
    "test_store_reopen_matches_linear_scan": (
        8, "a reopened 1,000-document store answers queries like a linear scan"),
}

# (text, [(label, rule, token_start, token_end)])
GOLDEN = [
    ("اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو",
     [(TagLabel.PERSON, RuleId.R3_GazetteerName, 0, 2),
      (TagLabel.DATE, RuleId.R1_DateTime, 2, 3),
      (TagLabel.ORGANIZATION, RuleId.R10_OrgKeyword, 4, 6)]),
    ("05.06.2016", [(TagLabel.DATE, RuleId.R1_DateTime, 0, 1)]),
    ("05/06/2016", [(TagLabel.DATE, RuleId.R1_DateTime, 0, 1)]),
    ("07 جولاءِ 2016", [(TagLabel.DATE, RuleId.R1_DateTime, 0, 3)]),
    ("اڄ 15 جون آهي", [(TagLabel.DATE, RuleId.R1_DateTime, 1, 3)]),
    ("2020 سال ۾ وبا آئي", [(TagLabel.DATE, RuleId.R1_DateTime, 0, 2)]),
    ("صبح 10:40 تي", [(TagLabel.TIME, RuleId.R1_DateTime, 1, 2)]),
    ("گاڏي 23:59 تي ايندي", [(TagLabel.TIME, RuleId.R1_DateTime, 1, 2)]),
    ("99:99 وڄي", []),
    ("هو خيرپور کان آيو", [(TagLabel.LOCATION, RuleId.R2_Suffix, 1, 2)]),
    ("اسلام‌آباد پهتو", [(TagLabel.LOCATION, RuleId.R2_Suffix, 0, 1)]),
    ("سعيداد آيو", [(TagLabel.PERSON, RuleId.R2_Suffix, 0, 1)]),
    ("هو لسانيات پڙهي ٿو", [(TagLabel.TERM, RuleId.R2_Suffix, 1, 2)]),
    ("ڪراچي ۾ مينهن وٺو",
     [(TagLabel.LOCATION, RuleId.R_GazetteerDirect, 0, 1)]),
    ("وزير اعظم زرداري ويو",
     [(TagLabel.DESIGNATION, RuleId.R5_TitleDesignation, 0, 2),
      (TagLabel.PERSON, RuleId.R5_TitleDesignation, 2, 3)]),
    ("ڊاڪٽر شاهده ميمڻ آئي",
     [(TagLabel.DESIGNATION, RuleId.R5_TitleDesignation, 0, 1),
      (TagLabel.PERSON, RuleId.R5_TitleDesignation, 1, 3)]),
    ("اويس جي گهر ۾ ڪتاب پيو آهي",
     [(TagLabel.PERSON, RuleId.R3_GazetteerName, 0, 1)]),
    ("شفقت جي ڪتاب وٺي آيو",
     [(TagLabel.PERSON, RuleId.R6_Postposition, 0, 1)]),
    ("هن ڇهه سو پنج رپيا ڏنا",
     [(TagLabel.NUMBER, RuleId.R7_NumberWords, 1, 4)]),
    ("جي اي مهر صاحب آيو", [(TagLabel.PERSON, RuleId.R8_Initials, 0, 3)]),
    ("جي مهر آيو", [(TagLabel.PERSON, RuleId.R8_Initials, 0, 2)]),
    ("ڪي ٽي اين تي خبر آئي",
     [(TagLabel.ABBREVIATION, RuleId.R9_Abbreviation, 0, 3)]),
    ("وغيره لکيو", [(TagLabel.ABBREVIATION, RuleId.R_GazetteerDirect, 0, 1)]),
    ("شاه عبدالطيف يونيورسٽي ۾ داخلا ورتي",
     [(TagLabel.ORGANIZATION, RuleId.R10_OrgKeyword, 0, 3)]),
    ("وڌيڪ ڄاڻ http://nlp.cs.nyu.edu تي لکو",
     [(TagLabel.URL, RuleId.R_UrlEmail, 2, 3)]),
    ("awaisjumani@yahoo.com تي لکو",
     [(TagLabel.EMAIL, RuleId.R_UrlEmail, 0, 1)]),
    ("سوزوڪي موٽر وٺو", [(TagLabel.BRAND, RuleId.R_GazetteerDirect, 0, 1)]),
    ("", []),
]


def test_golden_sentences_under_a_second(engine):
    assert len(GOLDEN) >= 20
    started = time.perf_counter()
    failures = []
    for text, expected in GOLDEN:
        doc = engine.tag_text(text)
        got = [(e.label, e.rule, e.token_start, e.token_end)
               for e in doc.entities]
        if got != expected:
            failures.append((text, expected, got))
    elapsed = time.perf_counter() - started
    assert not failures, failures
    assert elapsed < 1.0, f"goldens took {elapsed:.3f}s"


def test_bundled_corpus_scores_100(engine):
    corpus = load_gold(DATA_DIR / "mini_gold.tsv")
    assert sum(len(d.tokens) for d in corpus.documents) >= 100
    seen = {label for doc in corpus.documents
            for label in doc.labels if label != "O"}
    assert seen == {label.value for label in TagLabel}
    report = evaluate(engine, corpus)
    assert report.correct_tokens == report.total_tokens
    assert report.accuracy_display == "100.00%"


def test_scoring_arithmetic_oracle():
    rng = random.Random(20160605)
    labels = ["O"] + [label.value for label in TagLabel]
    pairs = []
    for _ in range(1000):
        length = rng.randrange(0, 12)
        pairs.append(([rng.choice(labels) for _ in range(length)],
                      [rng.choice(labels) for _ in range(length)]))

    report = score_labels([g for g, _ in pairs], [p for _, p in pairs])

    # Independent recount, plain counters only.
    total = correct = 0
    tp, fp, fn = {}, {}, {}
    for gold_seq, pred_seq in pairs:
        for g, p in zip(gold_seq, pred_seq):
            total += 1
            correct += g == p
            if p != "O" and p == g:
                tp[p] = tp.get(p, 0) + 1
            if p != "O" and p != g:
                fp[p] = fp.get(p, 0) + 1
            if g != "O" and p != g:
                fn[g] = fn.get(g, 0) + 1
    assert (report.total_tokens, report.correct_tokens) == (total, correct)
    for name in set(tp) | set(fp) | set(fn):
        score = report.per_label[name]
        assert score.tp == tp.get(name, 0)
        assert score.fp == fp.get(name, 0)
        assert score.fn == fn.get(name, 0)
    for name, score in report.per_label.items():
        assert (score.tp or score.fp or score.fn), name

    assert EvalReport(total_tokens=936, correct_tokens=924) \
        .accuracy_display == "98.72%"


def test_partition_fuzz(engine):
    rng = random.Random(1991)
    pools = (
        "اويس جمائي ڪراچي يونيورسٽي وزير اعظم جي ۾ تي کان",
        "ابپتٹثجچحخددرزسشصضطظعغفقڪکگلمنڻوهءيئڄڃڦڇٺٽ",
        "0123456789",
        "abcXYZ@._:/",
        "،۔.,;:!?()[]\"'",
        " \t\n  ",
    )
    inputs = ["", " ", "۔", "،،،", "123", "10:40", "....", "\t\n"]
    while len(inputs) < 10000:
        parts = []
        for _ in range(rng.randrange(1, 5)):
            pool = rng.choice(pools)
            size = rng.randrange(1, 12)
            parts.append("".join(rng.choice(pool) for _ in range(size)))
        inputs.append(rng.choice(("", " ")).join(parts))
    for raw in inputs:
        doc = engine.tag_text(raw)
        seen = set()
        for e in doc.entities:
            assert 0 <= e.token_start < e.token_end <= len(doc.tokens), raw
            span = set(range(e.token_start, e.token_end))
            assert not span & seen, raw
            seen |= span
        assert sorted(seen | set(doc.untagged)) == list(range(len(doc.tokens))), raw
        assert len(doc.untagged) == len(set(doc.untagged)), raw


def test_lookup_matches_brute_force():
    rng = random.Random(77)
    vocab = ["الف", "بي", "جيم", "دال", "هي", "واو", "زي"]
    categories = list(Category)
    for trial in range(500):
        # Loading rejects duplicate (surface, category) pairs, so the
        # random gazetteers must respect that invariant too.
        specs = {}
        for _ in range(rng.randrange(1, 12)):
            surface = " ".join(rng.choice(vocab)
                               for _ in range(rng.randrange(1, 4)))
            specs.setdefault((surface, rng.choice(categories)), None)
        gaz = make_gazetteer(list(specs))
        tokens = tokenize(" ".join(
            rng.choice(vocab) for _ in range(rng.randrange(1, 9))))
        if rng.random() < 0.5:
            wanted = None
        else:
            wanted = tuple(rng.sample(categories, rng.randrange(1, 4)))
        for i in range(len(tokens)):
            got = lookup_longest(gaz, tokens, i, categories=wanted)
            expected = brute_force_lookup(gaz, tokens, i, categories=wanted)
            assert got == expected, (trial, i, got, expected)


def test_clock_times_exhaustive(engine):
    rules = engine.rules
    for hour in range(100):
        for minute in range(100):
            stream = tokenize(f"{hour:02d}:{minute:02d}")
            hit = rules.match_datetime(stream, 0)
            if hour <= 23 and minute <= 59:
                assert hit is not None and hit.label is TagLabel.TIME, \
                    (hour, minute)
            else:
                assert hit is None, (hour, minute)


def test_megabyte_throughput_and_determinism(engine):
    sentences = []
    for doc in load_gold(DATA_DIR / "mini_gold.tsv").documents:
        sentences.append(" ".join(doc.tokens))
    chunk = " ۔ ".join(sentences)
    text = chunk
    while len(text.encode("utf-8")) < 1_000_000:
        text += " ۔ " + chunk
    size = len(text.encode("utf-8"))
    assert size >= 1_000_000

    started = time.perf_counter()
    first = engine.tag_text(text)
    elapsed = time.perf_counter() - started
    second = engine.tag_text(text)

    assert render(first, "jsonl") == render(second, "jsonl")
    throughput = size / elapsed
    assert throughput >= 1_000_000, f"{throughput / 1e6:.2f} MB/s"


def test_store_reopen_matches_linear_scan(engine, tmp_path):
    seeds = [text for text, _ in GOLDEN if text]
    rng = random.Random(42)
    path = tmp_path / "big.jsonl"
    with CorpusStore(path) as store:
        for i in range(1000):
            text = seeds[i % len(seeds)]
            if rng.random() < 0.3:
                text = text + " ۽ " + seeds[rng.randrange(len(seeds))]
            assert store.append(engine.tag_text(text)) == i + 1

    with CorpusStore(path) as store:
        assert len(store) == 1000
        docs = list(store.documents())
        filters = [dict()]
        filters += [{"label": label.value} for label in TagLabel]
        filters += [{"surface": s} for s in
                    ("جمائي", "يونيورسٽي", "05", "yahoo", "ڪراچي", "ghost")]
        filters += [{"rule": rule.value} for rule in RuleId]
        filters += [
            {"label": "PERSON", "surface": "مهر"},
            {"label": "DATE", "rule": "R1_DateTime"},
            {"label": "DATE", "rule": "R_UrlEmail"},
            {"label": "PERSON", "surface": "اويس", "rule": "R3_GazetteerName"},
        ]
        for kwargs in filters:
            expected = []
            for doc in docs:
                for e in doc.entities:
                    if "label" in kwargs and e.label.value != kwargs["label"]:
                        continue
                    if "surface" in kwargs and kwargs["surface"].casefold() \
                            not in e.surface.casefold():
                        continue
                    if "rule" in kwargs and e.rule.value != kwargs["rule"]:
                        continue
                    expected.append(
                        ((doc.doc_id, e.token_start, e.token_end), e))
            assert store.query(**kwargs) == expected, kwargs
