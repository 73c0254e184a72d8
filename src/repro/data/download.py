"""Downloadable real datasets behind the synthetic registry.

The synthetic SCM generators stand in for the paper's UCI downloads so
the whole suite runs hermetically — but the at-scale density benchmarks
(``density_at_scale``) want *real* row distributions at 100k–1M rows.
This module adds a ludwig-style downloadable registry next to the
synthetic one: each entry names a source URL, a cache location and a
parser into an existing schema, with two reliability layers on top:

* **checksum verification** — a SHA-256 per downloaded file.  Entries
  may pin the digest in code; entries without a pin trust the first
  download and record the digest in a ``checksums.json`` lockfile in the
  cache dir, so any later corruption or upstream change is caught.
* **offline fallback** — when the download fails (no network, CI
  sandbox) the loader synthesises an upsampled population from the
  matching SCM generator instead of failing, so callers always get
  rows; ``require_real=True`` opts out and raises.

Files are cached under ``$REPRO_DATA_CACHE`` (default
``~/.cache/repro-datasets``); the CI workflow persists that directory
across runs keyed on this module's content.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass

import numpy as np

from .adult import ADULT_SCHEMA, generate_adult
from .frame import TabularFrame
from .preprocess import clean

__all__ = [
    "DownloadError",
    "DownloadableDataset",
    "data_cache_dir",
    "downloadable_names",
    "fetch_dataset",
    "load_downloadable",
    "upsample",
]

#: Environment variable overriding the dataset cache directory.
CACHE_ENV = "REPRO_DATA_CACHE"

_LOCKFILE = "checksums.json"


class DownloadError(RuntimeError):
    """A dataset download failed or a cached file fails verification."""


@dataclass(frozen=True)
class DownloadableDataset:
    """One registry entry: where a real dataset lives and how to read it.

    ``parse(path)`` returns ``(frame, labels)`` in an existing synthetic
    schema, so every downstream consumer (encoder, constraints,
    benchmarks) works unchanged on real rows.  ``fallback(n_rows, seed)``
    generates a synthetic stand-in population of the same schema for
    offline runs.  ``sha256=None`` means trust-on-first-use: the digest
    is recorded in the cache lockfile at first download.
    """

    name: str
    url: str
    filename: str
    schema: object
    parse: callable
    fallback: callable
    sha256: str = None


def data_cache_dir(cache_dir=None):
    """Resolve the dataset cache directory (created on demand).

    Priority: explicit argument, then ``$REPRO_DATA_CACHE``, then
    ``~/.cache/repro-datasets``.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir is None:
        cache_dir = pathlib.Path.home() / ".cache" / "repro-datasets"
    path = pathlib.Path(cache_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_lockfile(cache):
    path = cache / _LOCKFILE
    if not path.is_file():
        return {}
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return {}


def _record_checksum(cache, filename, digest):
    locked = _read_lockfile(cache)
    locked[filename] = digest
    (cache / _LOCKFILE).write_text(json.dumps(locked, indent=2, sort_keys=True) + "\n")


def _default_fetcher(url, dest):
    """Stream ``url`` to ``dest`` (atomic: partial downloads never land)."""
    # imported here so that importing the package never loads the
    # network stack; only a real download needs it
    import urllib.request

    partial = dest.with_suffix(dest.suffix + ".part")
    with urllib.request.urlopen(url, timeout=60) as response, open(partial, "wb") as out:
        while True:
            chunk = response.read(1 << 20)
            if not chunk:
                break
            out.write(chunk)
    partial.replace(dest)


def fetch_dataset(name, cache_dir=None, fetcher=None):
    """Download-or-reuse a registered dataset file; returns its path.

    A cached file is verified against the pinned (or locked) SHA-256
    before reuse and :class:`DownloadError` names the mismatch —
    corruption never silently feeds a benchmark.  ``fetcher(url, dest)``
    replaces the urllib downloader (tests inject local fixtures with
    it).
    """
    entry = _downloadable(name)
    cache = data_cache_dir(cache_dir)
    dest = cache / entry.filename
    expected = entry.sha256 or _read_lockfile(cache).get(entry.filename)

    if not dest.is_file():
        fetcher = _default_fetcher if fetcher is None else fetcher
        try:
            fetcher(entry.url, dest)
        except Exception as error:
            raise DownloadError(
                f"could not download {name!r} from {entry.url}: {error}") from error
        if not dest.is_file():
            raise DownloadError(f"fetcher for {name!r} produced no file at {dest}")

    actual = _sha256(dest)
    if expected is None:
        # trust-on-first-use: lock the digest so later runs detect drift
        _record_checksum(cache, entry.filename, actual)
    elif actual != expected:
        raise DownloadError(
            f"{dest} fails its checksum (expected {expected[:12]}..., got "
            f"{actual[:12]}...); delete the file to re-download, or update "
            f"the lockfile if upstream legitimately changed")
    return dest


def upsample(frame, labels, n_rows, seed=0, schema=None):
    """Resample a population to ``n_rows`` with continuous jitter.

    Rows are drawn with replacement; continuous features get a small
    Gaussian perturbation (1% of the feature's bound range, clipped back
    into bounds) so the upsampled population has ``n_rows`` *distinct*
    points instead of exact duplicates — what a density index needs to
    be exercised honestly.  Categorical/binary cells are copied as-is.
    """
    n_rows = int(n_rows)
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    rng = np.random.default_rng(seed)
    picked = rng.integers(0, frame.n_rows, size=n_rows)
    out = frame.take(picked)
    labels = np.asarray(labels)[picked]
    if schema is not None:
        columns = {name: out[name] for name in out.column_names}
        for spec in schema.continuous:
            low, high = spec.bounds
            scale = 0.01 * (high - low)
            jittered = columns[spec.name].astype(np.float64)
            jittered = jittered + rng.normal(0.0, scale, size=n_rows)
            columns[spec.name] = np.clip(jittered, low, high)
        out = TabularFrame(columns)
    return out, labels


def load_downloadable(name, n_rows=None, seed=0, cache_dir=None, fetcher=None,
                      require_real=False):
    """Load a registered real dataset as clean ``(frame, labels, source)``.

    ``source`` is ``"download"`` when the rows came from the verified
    cached file and ``"synthetic"`` when the offline fallback generated
    them.  ``n_rows`` upsamples (or truncates) the cleaned population to
    an exact size via :func:`upsample` — the at-scale benchmarks ask for
    1k–1M rows regardless of the real file's size.  ``require_real=True``
    turns the fallback into a :class:`DownloadError`.
    """
    entry = _downloadable(name)
    try:
        path = fetch_dataset(name, cache_dir=cache_dir, fetcher=fetcher)
        frame, labels = entry.parse(path)
        source = "download"
    except DownloadError:
        if require_real:
            raise
        # generate a modest base population and let upsample() below
        # stretch it: generating 1M SCM rows directly would dominate
        # benchmark setup time without changing what is measured
        base_rows = 4096 if n_rows is None else min(max(int(n_rows), 1), 65536)
        frame, labels = entry.fallback(base_rows, seed)
        source = "synthetic"
    frame, labels = clean(frame, labels)
    if n_rows is not None:
        if int(n_rows) <= frame.n_rows:
            frame = frame.take(np.arange(int(n_rows)))
            labels = labels[: int(n_rows)]
        else:
            frame, labels = upsample(frame, labels, n_rows, seed=seed, schema=entry.schema)
    return frame, labels, source


# -- UCI Adult Census ---------------------------------------------------------

_ADULT_URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/adult/adult.data"
)

_ADULT_WORKCLASS = {
    "Private": "private",
    "Self-emp-not-inc": "self_employed",
    "Self-emp-inc": "self_employed",
    "Federal-gov": "government",
    "Local-gov": "government",
    "State-gov": "government",
    "Without-pay": "unemployed",
    "Never-worked": "unemployed",
}
_ADULT_EDUCATION = {
    "Preschool": "school", "1st-4th": "school", "5th-6th": "school",
    "7th-8th": "school", "9th": "school", "10th": "school", "11th": "school",
    "12th": "school",
    "HS-grad": "hs_grad",
    "Some-college": "some_college",
    "Assoc-voc": "assoc", "Assoc-acdm": "assoc",
    "Bachelors": "bachelors",
    "Masters": "masters", "Prof-school": "masters",
    "Doctorate": "doctorate",
}
_ADULT_MARITAL = {
    "Never-married": "single",
    "Married-civ-spouse": "married",
    "Married-spouse-absent": "married",
    "Married-AF-spouse": "married",
    "Divorced": "divorced", "Separated": "divorced",
    "Widowed": "widowed",
}
_ADULT_OCCUPATION = {
    "Craft-repair": "blue_collar", "Handlers-cleaners": "blue_collar",
    "Machine-op-inspct": "blue_collar", "Farming-fishing": "blue_collar",
    "Transport-moving": "blue_collar",
    "Other-service": "service", "Priv-house-serv": "service",
    "Protective-serv": "service", "Armed-Forces": "service",
    "Sales": "sales",
    "Adm-clerical": "white_collar", "Exec-managerial": "white_collar",
    "Tech-support": "professional", "Prof-specialty": "professional",
}
_ADULT_RACE = {
    "White": "white", "Black": "black", "Asian-Pac-Islander": "asian",
    "Amer-Indian-Eskimo": "amer_indian", "Other": "other",
}


def parse_adult_census(path):
    """Parse UCI ``adult.data`` rows into the :data:`ADULT_SCHEMA` layout.

    The raw file has 15 comma-separated columns; this keeps the nine the
    schema models, folding the UCI vocabularies into the schema's
    coarser categories (e.g. the three ``*-gov`` workclasses into
    ``government``).  ``?`` cells become missing values (``NaN`` /
    ``None``) for :func:`repro.data.preprocess.clean` to drop, exactly
    like the synthetic generator's injected missingness.
    """
    age, hours, workclass, education, marital = [], [], [], [], []
    occupation, race, gender, native_us, labels = [], [], [], [], []

    def categorical(mapping, value):
        return mapping.get(value)  # unknown / "?" -> missing

    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if len(row) != 15:
                continue  # blank/continuation lines in the raw file
            row = [cell.strip() for cell in row]
            age.append(np.clip(float(row[0]), 17.0, 90.0))
            workclass.append(categorical(_ADULT_WORKCLASS, row[1]))
            education.append(categorical(_ADULT_EDUCATION, row[3]))
            marital.append(categorical(_ADULT_MARITAL, row[5]))
            occupation.append(categorical(_ADULT_OCCUPATION, row[6]))
            race.append(categorical(_ADULT_RACE, row[8]))
            gender.append(1.0 if row[9] == "Male" else 0.0)
            hours.append(np.clip(float(row[12]), 1.0, 99.0))
            native_us.append(np.nan if row[13] == "?" else float(row[13] == "United-States"))
            labels.append(float(row[14].rstrip(".") == ">50K"))

    frame = TabularFrame({
        "age": np.array(age, dtype=np.float64),
        "hours_per_week": np.array(hours, dtype=np.float64),
        "workclass": np.array(workclass, dtype=object),
        "education": np.array(education, dtype=object),
        "marital_status": np.array(marital, dtype=object),
        "occupation": np.array(occupation, dtype=object),
        "race": np.array(race, dtype=object),
        "gender": np.array(gender, dtype=np.float64),
        "native_us": np.array(native_us, dtype=np.float64),
    })
    return frame, np.array(labels, dtype=np.float64)


def _adult_fallback(n_rows, seed):
    """Synthetic Adult population for offline runs (no missing cells)."""
    return generate_adult(n_instances=int(n_rows), seed=seed, missing_fraction=0.0)


_DOWNLOADABLE = {}


def register_downloadable(entry, overwrite=False):
    """Add a :class:`DownloadableDataset` to the registry; returns it."""
    if entry.name in _DOWNLOADABLE and not overwrite:
        raise ValueError(
            f"downloadable dataset {entry.name!r} is already registered "
            f"(overwrite=True replaces)")
    _DOWNLOADABLE[entry.name] = entry
    return entry


def downloadable_names():
    """Sorted names of every registered downloadable dataset."""
    return tuple(sorted(_DOWNLOADABLE))


def _downloadable(name):
    if name not in _DOWNLOADABLE:
        known = ", ".join(downloadable_names())
        raise KeyError(f"unknown downloadable dataset {name!r}; registered: {known}")
    return _DOWNLOADABLE[name]


register_downloadable(DownloadableDataset(
    name="adult_uci",
    url=_ADULT_URL,
    filename="adult.data",
    schema=ADULT_SCHEMA,
    parse=parse_adult_census,
    fallback=_adult_fallback,
))
