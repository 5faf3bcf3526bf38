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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import EdvwHypergraph, connected_component_labels
from .errors import DataIngestError

logger = logging.getLogger(__name__)

KAPPA_FLOOR = 1e-12

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


def kappa_from_std(hyperedges, gammas, n_vertices: int) -> np.ndarray:
    """Hyperedge strengths: population std of each EDVW vector.

    The vector of a hyperedge ranges over all vertices, with zeros for
    non-members.  Floored at `KAPPA_FLOOR` so kappa stays positive for
    constant vectors; one warning counts the floored hyperedges.
    """
    std = np.empty(len(hyperedges))
    for e, (ms, gs) in enumerate(zip(hyperedges, gammas)):
        dense = np.zeros(n_vertices)
        dense[ms] = gs
        std[e] = dense.std()
    low = std < KAPPA_FLOOR
    if low.any():
        logger.warning("%d constant EDVW vectors; kappa floored at %g",
                       int(low.sum()), KAPPA_FLOOR)
    return np.where(low, KAPPA_FLOOR, std)


def _finalize_hypergraph(n_vertices, edges, gammas, labels, provenance):
    """Drop degenerate hyperedges, restrict to the largest component,
    compute kappas and assemble the final hypergraph."""
    kept = [(e, g) for e, g in zip(edges, gammas) if len(e) >= 2]
    dropped = len(edges) - len(kept)
    if dropped:
        logger.info("dropped %d degenerate hyperedges (fewer than 2 members)",
                    dropped)
    if not kept:
        raise DataIngestError("no usable hyperedges after preprocessing")
    edges = [np.asarray(e, dtype=np.int64) for e, _ in kept]
    gammas = [np.asarray(g, dtype=np.float64) for _, g in kept]

    comp = connected_component_labels(n_vertices, edges)
    n_comp = int(comp.max()) + 1
    if n_comp > 1:
        sizes = np.bincount(comp)
        keep_comp = int(sizes.argmax())
        logger.warning("hypergraph disconnected (%d components); keeping the "
                       "largest with %d of %d vertices",
                       n_comp, sizes[keep_comp], n_vertices)
        keep_mask = comp == keep_comp
        remap = -np.ones(n_vertices, dtype=np.int64)
        remap[keep_mask] = np.arange(int(keep_mask.sum()))
        new_edges, new_gammas = [], []
        for ms, gs in zip(edges, gammas):
            inside = keep_mask[ms]
            if int(inside.sum()) >= 2:
                new_edges.append(remap[ms[inside]])
                new_gammas.append(gs[inside])
        edges, gammas = new_edges, new_gammas
        labels = labels[keep_mask]
        n_vertices = int(keep_mask.sum())

    kappa = kappa_from_std(edges, gammas, n_vertices)
    provenance.update({
        "n_vertices": n_vertices,
        "n_hyperedges": len(edges),
        "dropped_degenerate_hyperedges": dropped,
        "n_components_before_restrict": n_comp,
        "kappa_rule": "all-vertex-std",
        "kappa_floored": int(np.count_nonzero(kappa == KAPPA_FLOOR)),
    })
    h = EdvwHypergraph(n_vertices, edges, gammas, kappa)
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

    df: dict = {}
    tf: dict = {}
    for doc in documents:
        seen = set()
        for w in doc:
            if w in spec.stopwords:
                continue
            tf[w] = tf.get(w, 0) + 1
            if w not in seen:
                seen.add(w)
                df[w] = df.get(w, 0) + 1
    candidates = [w for w, d in df.items()
                  if spec.min_doc_frac <= d / n_docs <= spec.max_doc_frac]
    vocab = sorted(candidates, key=lambda w: (-tf[w], w))[:spec.vocab_size]
    vocab_index = {w: i for i, w in enumerate(vocab)}
    if not vocab:
        raise DataIngestError("empty vocabulary after frequency filtering")

    counts = []  # per document: {word_id: count}
    for doc in documents:
        c: dict = {}
        for w in doc:
            wid = vocab_index.get(w)
            if wid is not None:
                c[wid] = c.get(wid, 0) + 1
        counts.append(c)
    keep_docs = [i for i, c in enumerate(counts)
                 if len(c) >= spec.min_words_per_doc]
    n_kept = len(keep_docs)
    if n_kept < 2:
        raise DataIngestError("fewer than two documents survive filtering")

    # tf-idf over the retained documents
    df_kept = np.zeros(len(vocab))
    for i in keep_docs:
        for wid in counts[i]:
            df_kept[wid] += 1
    edges: list = [[] for _ in vocab]
    gammas: list = [[] for _ in vocab]
    zero_tfidf = 0
    for new_id, i in enumerate(keep_docs):
        for wid, cnt in counts[i].items():
            idf = np.log(n_kept / df_kept[wid])
            base = cnt * idf
            if base <= 0.0:
                zero_tfidf += 1  # word occurs in every retained document
                continue
            edges[wid].append(new_id)
            gammas[wid].append(base ** alpha)
    if zero_tfidf:
        logger.warning("dropped %d memberships with non-positive tf-idf",
                       zero_tfidf)

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
    return _finalize_hypergraph(n_kept, edges, gammas, labels[keep_docs],
                                provenance)


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

def edvw_from_bin_values(values, alpha: float) -> np.ndarray:
    """EDVWs of one bin: exp(-alpha * distance-to-median), distances scaled to [0, 1].

    A bin whose values all coincide (including single-member bins) has all
    distances zero, hence EDVWs of one regardless of alpha.
    """
    values = np.asarray(values, dtype=np.float64)
    d = np.abs(values - np.median(values))
    dmax = float(d.max())
    if dmax > 0.0:
        d = d / dmax
    else:
        d = np.zeros_like(d)
    return np.exp(-alpha * d)


def build_covertype_from_table(features, labels, spec: BinningSpec,
                               alpha: float) -> DatasetBuild:
    """Core binning pipeline on an already-filtered numeric table."""
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != labels.size:
        raise DataIngestError("features must be (n_rows, n_features) matching labels")
    n, n_features = x.shape

    edges, gammas = [], []
    empty_bins = 0
    for f in range(n_features):
        col = x[:, f]
        lo, hi = float(col.min()), float(col.max())
        if hi > lo:
            width = (hi - lo) / spec.bins_per_feature
            idx = np.minimum(((col - lo) / width).astype(np.int64),
                             spec.bins_per_feature - 1)
        else:
            idx = np.zeros(n, dtype=np.int64)  # constant feature: one bin
        for b in range(spec.bins_per_feature):
            members = np.flatnonzero(idx == b)
            if members.size == 0:
                empty_bins += 1
                continue
            edges.append(members)
            gammas.append(edvw_from_bin_values(col[members], alpha))

    provenance = {
        "pipeline": "covertype",
        "alpha": float(alpha),
        "n_rows": n,
        "n_features": n_features,
        "bins_per_feature": spec.bins_per_feature,
        "empty_bins": empty_bins,
        "edvw_rule": "exp(-alpha * |value - bin median| / bin max distance)",
    }
    return _finalize_hypergraph(n, edges, gammas, labels, provenance)


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
