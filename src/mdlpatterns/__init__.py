"""Compression-based anomaly detection for multi-site categorical hours.

Hourly mean wait times at several border-crossing sites are discretized into
ordered categories; each hour becomes one transaction of (site, category)
items. A pattern table is grown greedily from frequent itemsets, keeping only
patterns that shorten the total encoded length of table plus database. Hours
that compress poorly under the final table (long code length) are the
anomalies.

``__all__`` is the public API; everything else is imported from its module
(``mdlpatterns.ingest``, ``.mining``, ``.codec``, ``.anomaly``, ``.synth``,
``.cli``). Results are immutable ``typing.NamedTuple`` records, such as
``codec.CompressionResult`` and ``anomaly.Ranking``; ``_replace`` gives a
changed copy, and ``len(ranking.hours)`` counts the ranked hours, each held as
the text the artifacts write for it (``2016-08-22T10:00``). Typical use::

    from mdlpatterns import (
        compress, frequent_itemsets, least_support, read_transactions, score_all, top_fraction,
    )

    db, _ = read_transactions("transactions.csv")  # the hours, collapsed once
    least = least_support("0.05", len(db), minimum=2)
    result = compress(db, frequent_itemsets(db, least))
    ranking = score_all(db, result.table)
    worst = top_fraction(ranking, 0.05)
"""

from .anomaly import score_all, top_fraction
from .codec import compress
from .ingest import read_transactions
from .mining import frequent_itemsets, least_support

__version__ = "0.1.0"

__all__ = [
    "compress",
    "frequent_itemsets",
    "least_support",
    "read_transactions",
    "score_all",
    "top_fraction",
]
