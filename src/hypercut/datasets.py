"""Dataset ingestion: document-word and area-featurebin EDVW hypergraphs.

Two pipelines are provided:

* a two-category newsgroup corpus, where documents are vertices, retained
  vocabulary words are hyperedges, and the EDVW of a (word, document) pair is
  its tf-idf value raised to a tunable power alpha;
* the forest covertype table, where rows of two cover classes are vertices,
  equal-width bins of each numerical feature are hyperedges, and the EDVW of
  a (bin, row) pair is exp(-alpha * normalized distance to the bin median).

Both pipelines set each hyperedge strength kappa to the population standard
deviation of its EDVW vector over all vertices (zeros included for
non-members), floored at 1e-12 to stay positive.  Alpha = 0 turns every EDVW
into one, i.e. the cardinality-based degenerate case.

Raw files are downloaded by :func:`fetch_dataset` with recorded-digest
verification: the first successful fetch records sha256 digests next to the
files, later fetches verify against them and refuse mismatches.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import logging
import re
import tarfile
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .core import EdvwHypergraph, connected_component_labels, split_by_sizes
from .errors import DataIngestError

logger = logging.getLogger(__name__)

KAPPA_FLOOR = 1e-12
#: entries of the largest dense block `kappa_from_std` allocates: 1 MB stays
#: in cache, and at n = 4000 took a third of the time of one 8 MB block
_DENSE_BLOCK = 1 << 17

_TOKEN_RE = re.compile(r"[a-z]{2,}")


def _default_stopwords() -> frozenset:
    text = resources.files("hypercut").joinpath("stopwords.txt").read_text()
    return frozenset(w for w in text.split()
                     if w and not w.startswith("#"))


@dataclass(frozen=True)
class CorpusSpec:
    """Preprocessing knobs for the newsgroup pipeline."""

    category_a: str = "rec.motorcycles"
    category_b: str = "rec.sport.hockey"
    vocab_size: int = 100
    max_doc_frac: float = 0.10   # words in more docs than this are dropped
    min_doc_frac: float = 0.002  # words in fewer docs than this are dropped
    min_words_per_doc: int = 5   # distinct retained words required per doc
    stopwords: frozenset = field(default_factory=_default_stopwords)

    def __post_init__(self):
        if not (0.0 < self.min_doc_frac < 1.0 and 0.0 < self.max_doc_frac < 1.0):
            raise ValueError("document-frequency bounds must lie in (0, 1)")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be at least 1")


@dataclass(frozen=True)
class BinningSpec:
    """Preprocessing knobs for the covertype pipeline."""

    cover_types: tuple = (4, 5)
    bins_per_feature: int = 20

    def __post_init__(self):
        if self.bins_per_feature < 2:
            raise ValueError("need at least two bins per feature")


@dataclass(frozen=True, eq=False)
class DatasetBuild:
    """A built hypergraph together with its labels and provenance record."""

    hypergraph: EdvwHypergraph
    labels: np.ndarray
    provenance: dict


def tokenize(text: str) -> list:
    """Lowercase alphabetic tokens of length at least two."""
    return _TOKEN_RE.findall(text.lower())


def kappa_from_std(members, gamma, sizes, n_vertices: int) -> np.ndarray:
    """Hyperedge strengths: population std of each EDVW vector.

    The hyperedges are given as their concatenated `members` and `gamma`,
    one entry of `sizes` per hyperedge.  The vector of a hyperedge ranges
    over all vertices, with zeros for non-members.  Floored at
    `KAPPA_FLOOR` so kappa stays positive for constant vectors; one warning
    counts the floored hyperedges.  The vectors are taken as rows of dense
    blocks of at most `_DENSE_BLOCK` entries, whose row-wise std sums
    exactly as a single vector's does.
    """
    bounds = np.cumsum([0, *sizes])
    edge_of = np.repeat(np.arange(len(sizes)), sizes)
    std = np.empty(len(sizes))
    step = max(1, _DENSE_BLOCK // n_vertices)
    for lo in range(0, len(sizes), step):
        hi = min(lo + step, len(sizes))
        part = slice(bounds[lo], bounds[hi])
        dense = np.zeros((hi - lo, n_vertices))
        dense[edge_of[part] - lo, members[part]] = gamma[part]
        std[lo:hi] = dense.std(axis=1)
    low = std < KAPPA_FLOOR
    if low.any():
        logger.warning("%d constant EDVW vectors; kappa floored at %g",
                       int(low.sum()), KAPPA_FLOOR)
    return np.where(low, KAPPA_FLOOR, std)


def _finalize_hypergraph(n_vertices, members, gamma, sizes, labels,
                         provenance):
    """Drop degenerate hyperedges, restrict to the largest component,
    compute kappas and assemble the final hypergraph.

    The hyperedges arrive as concatenated `members` and `gamma` arrays with
    one entry of `sizes` per hyperedge.
    """
    kept = sizes >= 2
    dropped = int(np.count_nonzero(~kept))
    if dropped:
        logger.info("dropped %d degenerate hyperedges (fewer than 2 members)",
                    dropped)
    if not kept.any():
        raise DataIngestError("no usable hyperedges after preprocessing")
    inside = np.repeat(kept, sizes)
    members, gamma, sizes = members[inside], gamma[inside], sizes[kept]

    comp = connected_component_labels(n_vertices, members, sizes)
    n_comp = int(comp.max()) + 1
    if n_comp > 1:
        comp_sizes = np.bincount(comp)
        keep_comp = int(comp_sizes.argmax())
        logger.warning("hypergraph disconnected (%d components); keeping the "
                       "largest with %d of %d vertices",
                       n_comp, comp_sizes[keep_comp], n_vertices)
        keep_mask = comp == keep_comp
        remap = -np.ones(n_vertices, dtype=np.int64)
        remap[keep_mask] = np.arange(int(keep_mask.sum()))
        inside = keep_mask[members]
        counts = np.add.reduceat(inside, np.cumsum(sizes) - sizes)
        inside &= np.repeat(counts >= 2, sizes)
        members, gamma = remap[members[inside]], gamma[inside]
        sizes = counts[counts >= 2]
        labels = labels[keep_mask]
        n_vertices = int(keep_mask.sum())

    kappa = kappa_from_std(members, gamma, sizes, n_vertices)
    provenance.update({
        "n_vertices": n_vertices,
        "n_hyperedges": len(sizes),
        "dropped_degenerate_hyperedges": dropped,
        "n_components_before_restrict": n_comp,
        "kappa_rule": "all-vertex-std",
        "kappa_floored": int(np.count_nonzero(kappa == KAPPA_FLOOR)),
    })
    h = EdvwHypergraph(n_vertices, split_by_sizes(members, sizes),
                       split_by_sizes(gamma, sizes), kappa)
    return DatasetBuild(h, np.asarray(labels, dtype=np.int64), provenance)


# ---------------------------------------------------------------------------
# newsgroups
# ---------------------------------------------------------------------------

def build_newsgroups_from_documents(documents, labels, spec: CorpusSpec,
                                    alpha: float) -> DatasetBuild:
    """Core document-word pipeline on already-tokenized documents.

    Steps: document-frequency bounds and stopword removal over the full
    corpus, vocabulary capped at the most frequent words (total term count,
    alphabetical tie-break), removal of documents with too few distinct
    retained words, then tf-idf (raw count times ln(N/df), computed on the
    retained documents) raised to alpha as the EDVWs.
    """
    documents = [list(doc) for doc in documents]
    labels = np.asarray(labels, dtype=np.int64)
    n_docs = len(documents)
    if n_docs != labels.size:
        raise DataIngestError("labels length does not match document count")

    doc_counts = [Counter(doc) for doc in documents]
    tf = Counter(chain.from_iterable(documents))
    df = Counter(chain.from_iterable(doc_counts))
    candidates = [w for w, d in df.items() if w not in spec.stopwords
                  and spec.min_doc_frac <= d / n_docs <= spec.max_doc_frac]
    vocab = sorted(candidates, key=lambda w: (-tf[w], w))[:spec.vocab_size]
    vocab_index = {w: i for i, w in enumerate(vocab)}
    if not vocab:
        raise DataIngestError("empty vocabulary after frequency filtering")

    counts = [{vocab_index[w]: c for w, c in doc.items() if w in vocab_index}
              for doc in doc_counts]  # per document: {word_id: count}
    keep_docs = [i for i, c in enumerate(counts)
                 if len(c) >= spec.min_words_per_doc]
    n_kept = len(keep_docs)
    if n_kept < 2:
        raise DataIngestError("fewer than two documents survive filtering")

    # tf-idf over the retained documents, one entry per (document, word)
    kept = [counts[i] for i in keep_docs]
    doc_of = np.repeat(np.arange(n_kept), [len(c) for c in kept])
    word = np.fromiter(chain.from_iterable(kept), np.int64, doc_of.size)
    count = np.fromiter(chain.from_iterable(c.values() for c in kept),
                        np.float64, doc_of.size)
    df_kept = np.bincount(word)
    base = count * np.log(n_kept / df_kept[word])
    positive = base > 0.0
    zero_tfidf = int(np.count_nonzero(~positive))  # words in every document
    if zero_tfidf:
        logger.warning("dropped %d memberships with non-positive tf-idf",
                       zero_tfidf)
    # a scalar power per membership: numpy's vectorized power can differ
    # from it in the last bit, and the EDVWs are kept exactly as they were
    gamma = np.array([b ** alpha for b in base[positive]])
    order = np.argsort(word[positive], kind="stable")  # by word, then doc
    sizes = np.bincount(word[positive], minlength=len(vocab))

    provenance = {
        "pipeline": "newsgroups",
        "alpha": float(alpha),
        "vocab_size": len(vocab),
        "vocabulary": vocab,
        "max_doc_frac": spec.max_doc_frac,
        "min_doc_frac": spec.min_doc_frac,
        "min_words_per_doc": spec.min_words_per_doc,
        "n_documents_total": n_docs,
        "n_documents_retained": n_kept,
        "tfidf_variant": "count * ln(N/df), no normalization, "
                         "computed on retained documents",
        "dropped_zero_tfidf_memberships": zero_tfidf,
    }
    return _finalize_hypergraph(n_kept, doc_of[positive][order], gamma[order],
                                sizes, labels[keep_docs], provenance)


def _read_newsgroup_archive(archive: Path, categories) -> tuple:
    docs, labels = [], []
    with tarfile.open(archive, "r:gz") as tar:
        names = sorted(m.name for m in tar.getmembers() if m.isfile())
        for name in names:
            parts = name.split("/")
            if len(parts) < 3 or parts[1] not in categories:
                continue
            payload = tar.extractfile(name).read().decode("latin-1")
            docs.append(tokenize(payload))
            labels.append(categories.index(parts[1]))
    if not docs:
        raise DataIngestError(
            f"no documents for categories {categories} in {archive}")
    return docs, np.asarray(labels, dtype=np.int64)


def build_newsgroups_hypergraph(data_dir, spec: CorpusSpec,
                                alpha: float) -> DatasetBuild:
    """Build the document-word hypergraph from the raw newsgroup archive."""
    archive = Path(data_dir) / "20news-bydate.tar.gz"
    if not archive.exists():
        raise DataIngestError(
            f"missing {archive}; run `hypercut fetch newsgroups` first")
    cats = (spec.category_a, spec.category_b)
    docs, labels = _read_newsgroup_archive(archive, cats)
    build = build_newsgroups_from_documents(docs, labels, spec, alpha)
    build.provenance["categories"] = list(cats)
    build.provenance["source"] = str(archive)
    return build


# ---------------------------------------------------------------------------
# covertype
# ---------------------------------------------------------------------------

def build_covertype_from_table(features, labels, spec: BinningSpec,
                               alpha: float) -> DatasetBuild:
    """Core binning pipeline on an already-filtered numeric table.

    Each feature is cut into `bins_per_feature` equal-width bins (a constant
    feature into one); every non-empty bin is a hyperedge over its rows, in
    feature-major, bin-minor order.  The EDVW of a row in a bin is
    exp(-alpha * d), with d its distance to the bin median divided by the
    bin's largest such distance (all d are zero when the values coincide).
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != labels.size:
        raise DataIngestError("features must be (n_rows, n_features) matching labels")
    n, n_features = x.shape
    bins = spec.bins_per_feature

    lo, hi = x.min(axis=0), x.max(axis=0)  # a NaN shows in both
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(hi - lo).all():
            raise DataIngestError("features must be finite, with finite ranges")
    spread = hi > lo
    width = np.where(spread, (hi - lo) / bins, 1.0)
    idx = np.minimum(((x - lo) / width).astype(np.int64), bins - 1)
    idx[:, ~spread] = 0  # constant feature: one bin

    # a stable sort by bin keeps each bin's rows in id order; bin ids grow
    # with the value, so sorting a column by value also sorts it by bin
    by_bin = np.argsort(idx, axis=0, kind="stable")
    members = by_bin.T.ravel()
    values = np.take_along_axis(x, by_bin, axis=0).T.ravel()
    ordered = np.sort(x, axis=0).T.ravel()
    counts = np.bincount((idx + bins * np.arange(n_features)).ravel(),
                         minlength=bins * n_features)
    sizes = counts[counts > 0]
    starts = np.cumsum(sizes) - sizes
    # np.median of each bin: its middle value, or the mean of the two
    mid = starts + sizes // 2
    median = ordered[mid]
    even = sizes % 2 == 0
    median[even] = (ordered[mid[even] - 1] + median[even]) / 2
    d = np.abs(values - np.repeat(median, sizes))
    dmax = np.maximum.reduceat(d, starts)
    d = np.divide(d, np.repeat(dmax, sizes), out=np.zeros_like(d),
                  where=np.repeat(dmax > 0.0, sizes))
    gamma = np.exp(-alpha * d)

    provenance = {
        "pipeline": "covertype",
        "alpha": float(alpha),
        "n_rows": n,
        "n_features": n_features,
        "bins_per_feature": spec.bins_per_feature,
        "empty_bins": int(np.count_nonzero(counts == 0)),
        "edvw_rule": "exp(-alpha * |value - bin median| / bin max distance)",
    }
    return _finalize_hypergraph(n, members, gamma, sizes, labels, provenance)


def build_covertype_hypergraph(data_dir, spec: BinningSpec,
                               alpha: float) -> DatasetBuild:
    """Build the area-featurebin hypergraph from the raw covertype table."""
    raw = Path(data_dir) / "covtype.data.gz"
    if not raw.exists():
        raise DataIngestError(
            f"missing {raw}; run `hypercut fetch covertype` first")
    with gzip.open(raw, "rt") as fh:
        table = np.loadtxt(fh, delimiter=",", dtype=np.float64)
    if table.ndim != 2 or table.shape[1] < 11:
        raise DataIngestError("covertype table has unexpected shape")
    cover = table[:, -1].astype(np.int64)
    keep = np.isin(cover, spec.cover_types)
    features = table[keep, :10]  # the ten quantitative columns
    labels = (cover[keep] == spec.cover_types[1]).astype(np.int64)
    build = build_covertype_from_table(features, labels, spec, alpha)
    build.provenance["source"] = str(raw)
    build.provenance["cover_types"] = list(spec.cover_types)
    return build


# ---------------------------------------------------------------------------
# fetching
# ---------------------------------------------------------------------------

DATASET_FILES = {
    "newsgroups": (
        ("20news-bydate.tar.gz",
         "http://qwone.com/~jason/20Newsgroups/20news-bydate.tar.gz"),
    ),
    "covertype": (
        ("covtype.data.gz",
         "https://archive.ics.uci.edu/ml/machine-learning-databases/"
         "covtype/covtype.data.gz"),
    ),
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fetch_dataset(name: str, data_dir) -> dict:
    """Download raw files (idempotent) and verify recorded sha256 digests.

    Digests are recorded on first fetch (trust-on-first-use) in
    ``digests.json`` inside the data directory; subsequent fetches and
    re-downloads must match or the file is removed and an error raised.
    """
    if name not in DATASET_FILES:
        raise ValueError(f"unknown dataset {name!r}; "
                         f"expected one of {sorted(DATASET_FILES)}")
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    digest_path = data_dir / "digests.json"
    digests = json.loads(digest_path.read_text()) if digest_path.exists() else {}

    record = {"dataset": name, "files": []}
    for filename, url in DATASET_FILES[name]:
        target = data_dir / filename
        if target.exists():
            actual = _sha256(target)
            if filename in digests and digests[filename] != actual:
                raise DataIngestError(
                    f"{target} digest mismatch: expected {digests[filename]}, "
                    f"got {actual}")
            digests.setdefault(filename, actual)
            record["files"].append({"file": filename, "sha256": actual,
                                    "downloaded": False})
            continue
        tmp = target.with_suffix(target.suffix + ".part")
        try:
            logger.info("downloading %s", url)
            with urllib.request.urlopen(url, timeout=60) as resp, \
                    open(tmp, "wb") as out:
                while True:
                    block = resp.read(1 << 20)
                    if not block:
                        break
                    out.write(block)
            actual = _sha256(tmp)
            if filename in digests and digests[filename] != actual:
                raise DataIngestError(
                    f"downloaded {filename} digest mismatch: expected "
                    f"{digests[filename]}, got {actual}")
            tmp.rename(target)
        except DataIngestError:
            tmp.unlink(missing_ok=True)
            raise
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise DataIngestError(
                f"failed to download {url}: {exc}; if this machine is "
                f"offline, place the file at {target} manually") from exc
        digests[filename] = actual
        record["files"].append({"file": filename, "sha256": actual,
                                "downloaded": True})
    digest_path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return record
