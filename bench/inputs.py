"""Seeded raw inputs shaped like the paper's two datasets.

Real raw data is not available offline, so the benchmark builds stand-ins of
the same shape and hands them to the public build functions.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

#: class sizes of cover types 4 and 5 in the real covertype table
COVERTYPE_SPLIT = (2747, 9493)
COVERTYPE_FEATURES = 10
#: every feature is sqrt(rho) * latent + sqrt(1 - rho) * own noise
COVERTYPE_SHARED_VARIANCE = 0.5
#: shift of the second class on the latent factor, in standard deviations
COVERTYPE_OFFSET = 2.0

#: newsgroups vocabulary sizes, and the share of cross-posted documents
TOPIC_WORDS = 150
SHARED_WORDS = 100
CROSS_POSTED = 0.4


def covertype_table(n: int, seed: int):
    """(features, labels): `n` rows of 10 features, standard normal per class.

    Classes follow the real 2747:9493 split scaled to `n`.  The features
    share one latent factor, as the real terrain columns do, and the second
    class is shifted by `COVERTYPE_OFFSET` on it.  The cut of least NCC then
    splits the rows along the latent factor into two parts of about equal
    volume, so it agrees with the classes well but not exactly: its
    clustering error is about 0.3, and a cut that ignores the classes reads
    about 0.5.  Values are clipped to a fixed range, as a measuring
    instrument would, so the equal-width bins and with them the hyperedge
    sizes do not follow each seed's most extreme draw.
    """
    rng = np.random.default_rng([seed, 1])
    n0 = int(round(n * COVERTYPE_SPLIT[0] / sum(COVERTYPE_SPLIT)))
    labels = np.repeat(np.array([0, 1], dtype=np.int64), [n0, n - n0])
    rng.shuffle(labels)
    rho = COVERTYPE_SHARED_VARIANCE
    latent = rng.standard_normal(n) + COVERTYPE_OFFSET * labels
    features = (np.sqrt(rho) * latent[:, None]
                + np.sqrt(1.0 - rho) * rng.standard_normal((n, COVERTYPE_FEATURES)))
    np.clip(features, -2.5, 2.5 + np.sqrt(rho) * COVERTYPE_OFFSET, out=features)
    return features, labels


def _words(prefix: str, count: int) -> list:
    # two-letter alphabetic suffixes keep every token a plain word
    return [prefix + chr(97 + i // 26) + chr(97 + i % 26) for i in range(count)]


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, count + 1) ** exponent
    return w / w.sum()


def newsgroups_corpus(n_docs: int, seed: int):
    """(documents, labels): tokenized documents of two categories.

    A document draws each token from its own category's Zipf-like topic
    vocabulary (probability 0.6), the other category's (0.1) or a shared
    vocabulary (0.3).  A `CROSS_POSTED` share of the documents draws from
    both topic vocabularies alike (0.35 each), so they are ambiguous and the
    clustering error stays well above zero.  Document lengths are lognormal.
    """
    rng = np.random.default_rng([seed, 2])
    topics = (_words("motoword", TOPIC_WORDS), _words("hockword", TOPIC_WORDS))
    shared = _words("bothword", SHARED_WORDS)
    topic_p = _zipf_weights(TOPIC_WORDS, 0.5)
    shared_p = _zipf_weights(SHARED_WORDS, 0.5)
    labels = np.arange(n_docs, dtype=np.int64) % 2
    rng.shuffle(labels)
    lengths = np.clip(rng.lognormal(3.7, 0.5, size=n_docs).astype(np.int64),
                      8, 300)
    crossed = rng.random(n_docs) < CROSS_POSTED
    documents = []
    for label, length, cross in zip(labels, lengths, crossed):
        source = rng.choice(3, size=length,
                            p=[0.35, 0.35, 0.3] if cross else [0.6, 0.1, 0.3])
        own = rng.choice(TOPIC_WORDS, size=length, p=topic_p)
        other = rng.choice(TOPIC_WORDS, size=length, p=topic_p)
        common = rng.choice(SHARED_WORDS, size=length, p=shared_p)
        doc = [topics[label][o] if s == 0 else
               topics[1 - label][t] if s == 1 else shared[c]
               for s, o, t, c in zip(source, own, other, common)]
        documents.append(doc)
    return documents, labels
