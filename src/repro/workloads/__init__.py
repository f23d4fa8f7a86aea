"""SparkBench-style workloads: KMeans, PCA, SQL, plus WordCount.

Each workload drives the engine the way the paper's evaluation does
(§IV): KMeans with 20 stages and shuffles at stages 12-17, PCA with
compute- and network-intensive aggregation stages, SQL with
scan/aggregate/join/sort. Data generators produce a small physical sample
carrying the paper's virtual input sizes (Table I: KMeans 21.8 GB, PCA
27.6 GB, SQL 34.5 GB).
"""

from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.datagen import (
    KMeansDataGen,
    PCADataGen,
    SQLTableGen,
    TextDataGen,
)
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.pca import PCAWorkload
from repro.workloads.sql import SQLWorkload
from repro.workloads.wordcount import ShuffleWordCountWorkload, WordCountWorkload

__all__ = [
    "Workload",
    "WorkloadResult",
    "KMeansDataGen",
    "PCADataGen",
    "SQLTableGen",
    "TextDataGen",
    "KMeansWorkload",
    "PCAWorkload",
    "SQLWorkload",
    "ShuffleWordCountWorkload",
    "WordCountWorkload",
]
