"""Compression-based anomaly detection for multi-site categorical hours.

Hourly mean wait times at several border-crossing sites are discretized into
ordered categories; each hour becomes one transaction of (site, category)
items. A pattern table is grown greedily from frequent itemsets, keeping only
patterns that shorten the total encoded length of table plus database. Hours
that compress poorly under the final table (long code length) are the
anomalies.

Typical use::

    from mdlpatterns import compress, frequent_itemsets, score_all, top_fraction

    result = compress(transactions, frequent_itemsets(transactions, threshold))
    scored = score_all(transactions, result.table)
    worst = top_fraction(scored, 0.05)
"""

from .anomaly import (
    HourHistogram,
    ScoredTransaction,
    hour_frequency,
    read_scores,
    report,
    score_all,
    top_fraction,
    write_scores,
)
from .codec import (
    CompressionResult,
    Cover,
    Pattern,
    PatternTable,
    TrialRecord,
    compress,
    cover_database,
    database_length,
    init_pattern_table,
    pattern_code_length,
    read_pattern_table,
    recompute_usages,
    table_length,
    total_length,
    write_acceptance_log,
    write_pattern_table,
)
from .ingest import (
    Category,
    ColumnSchema,
    Direction,
    IngestError,
    Item,
    ParseResult,
    Transaction,
    TransactionBuild,
    VehicleClass,
    WaitTimeRecord,
    aggregate_hourly,
    build_transactions,
    discretize,
    parse_records,
    read_transactions,
    write_transactions,
)
from .mining import (
    Itemset,
    SupportThreshold,
    canonical_key,
    format_items,
    frequent_itemsets,
    parse_items,
    read_itemsets,
    support,
    write_itemsets,
)
from .synth import (
    SyntheticDataset,
    generate_synthetic,
    read_manifest,
    write_manifest,
    write_records_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Category",
    "ColumnSchema",
    "CompressionResult",
    "Cover",
    "Direction",
    "HourHistogram",
    "IngestError",
    "Item",
    "Itemset",
    "ParseResult",
    "Pattern",
    "PatternTable",
    "ScoredTransaction",
    "SupportThreshold",
    "SyntheticDataset",
    "Transaction",
    "TransactionBuild",
    "TrialRecord",
    "VehicleClass",
    "WaitTimeRecord",
    "aggregate_hourly",
    "build_transactions",
    "canonical_key",
    "compress",
    "cover_database",
    "database_length",
    "discretize",
    "format_items",
    "frequent_itemsets",
    "generate_synthetic",
    "hour_frequency",
    "init_pattern_table",
    "parse_items",
    "parse_records",
    "pattern_code_length",
    "read_itemsets",
    "read_manifest",
    "read_pattern_table",
    "read_scores",
    "read_transactions",
    "recompute_usages",
    "report",
    "score_all",
    "support",
    "table_length",
    "top_fraction",
    "total_length",
    "write_acceptance_log",
    "write_itemsets",
    "write_manifest",
    "write_pattern_table",
    "write_records_csv",
    "write_scores",
    "write_transactions",
]
