"""Synthetic raw-data builders shaped like the real corpora, for offline tests.

The toy newsgroup archive plants two disjoint topic vocabularies (48 words
each) plus four connector words shared across categories, sized so that the
default preprocessing bounds keep every document: each topic word occurs in
exactly 10 of 160 documents (6.25% document frequency) and every document
carries six distinct vocabulary words.  The toy covertype table plants two
well-separated classes in nine features and one overlapping feature that
keeps the hypergraph connected.
"""

import gzip
import importlib.util
import io
import tarfile
from pathlib import Path

import numpy as np

CATEGORIES = ("rec.motorcycles", "rec.sport.hockey")


def bench_inputs():
    """The benchmark's seeded input module, `bench/inputs.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_toy_newsgroup_archive(data_dir: Path, docs_per_cat: int = 80,
                               seed: int = 0) -> Path:
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    path = data_dir / "20news-bydate.tar.gz"
    rng = np.random.default_rng(seed)

    def suffix(i: int) -> str:  # tokenizer keeps alphabetic runs only
        return chr(97 + i // 26) + chr(97 + i % 26)

    pools = ([f"motoword{suffix(i)}" for i in range(48)],
             [f"hockword{suffix(i)}" for i in range(48)])
    common = [f"bothword{suffix(i)}" for i in range(4)]

    with tarfile.open(path, "w:gz") as tar:
        for ci, cat in enumerate(CATEGORIES):
            pool = pools[ci]
            for d in range(docs_per_cat):
                # stride-3 windows of width 6 overlap, chaining the category
                window = (d * 3) % 48
                toks = []
                for j in range(6):
                    toks.extend([pool[(window + j) % 48]]
                                * int(rng.integers(1, 4)))
                if d % 13 == 0:
                    toks.extend([common[(d // 13 + ci) % len(common)]] * 5)
                text = f"Subject: toy {cat}\n\n" + " ".join(toks) + "\n"
                data = text.encode()
                info = tarfile.TarInfo(
                    f"20news-bydate-train/{cat}/{10_000 + ci * 1000 + d}")
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
    return path


def toy_covertype_table(seed: int = 0):
    """(features, labels) with classes 4 and 5 planted apart."""
    rng = np.random.default_rng(seed)
    n4, n5 = 360, 240
    f4 = rng.normal(0.0, 1.0, size=(n4, 9))
    f5 = rng.normal(8.0, 1.0, size=(n5, 9))
    overlap = rng.uniform(0.0, 1.0, size=(n4 + n5, 1))  # keeps things connected
    features = np.hstack([np.vstack([f4, f5]), overlap])
    labels = np.array([4] * n4 + [5] * n5)
    return features, labels


def make_toy_covertype_file(data_dir: Path, seed: int = 0) -> Path:
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    path = data_dir / "covtype.data.gz"
    features, labels = toy_covertype_table(seed)
    rng = np.random.default_rng(seed + 1)
    # rows of another class must be filtered out by the builder
    other = rng.normal(4.0, 1.0, size=(50, 9))
    other = np.hstack([other, rng.uniform(0.0, 1.0, size=(50, 1))])
    feats = np.vstack([features, other])
    labs = np.concatenate([labels, np.full(50, 2)])
    dummies = np.zeros((feats.shape[0], 44))
    table = np.hstack([feats, dummies, labs[:, None]])
    with gzip.open(path, "wt") as fh:
        for row in table:
            fh.write(",".join(f"{v:.6f}" for v in row[:10])
                     + "," + ",".join(str(int(v)) for v in row[10:]) + "\n")
    return path
