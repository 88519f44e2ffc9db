"""Compression-based anomaly detection for multi-site categorical hours.

Hourly mean wait times at several border-crossing sites are discretized into
ordered categories; each hour becomes one transaction of (site, category)
items. A pattern table is grown greedily from frequent itemsets, keeping only
patterns that shorten the total encoded length of table plus database. Hours
that compress poorly under the final table (long code length) are the
anomalies.

``__all__`` is the public API; everything else is imported from its module
(``mdlpatterns.ingest``, ``.mining``, ``.codec``, ``.anomaly``, ``.synth``,
``.cli``). Typical use::

    from mdlpatterns import compress, frequent_itemsets, read_transactions, score_all, top_fraction

    transactions, _ = read_transactions("transactions.csv")
    result = compress(transactions, frequent_itemsets(transactions, threshold))
    scored = score_all(transactions, result.table)
    worst = top_fraction(scored, 0.05)
"""

from .anomaly import score_all, top_fraction
from .codec import compress
from .ingest import read_transactions
from .mining import SupportThreshold, frequent_itemsets

__version__ = "0.1.0"

__all__ = [
    "SupportThreshold",
    "compress",
    "frequent_itemsets",
    "read_transactions",
    "score_all",
    "top_fraction",
]
