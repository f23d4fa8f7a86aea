"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid engine, cluster, or CHOPPER configuration was supplied."""


class SchedulingError(ReproError):
    """The DAG or task scheduler reached an inconsistent state."""


class StageAbortedError(SchedulingError):
    """A stage was resubmitted ``MAX_STAGE_ATTEMPTS`` times and gave up.

    Raised by the DAG scheduler when lineage recovery keeps losing the
    same shuffle outputs (e.g. nodes dying faster than stages re-run).
    """


class ShuffleError(ReproError):
    """Shuffle data was requested that was never registered or written."""


class FetchFailure(ShuffleError):
    """A reduce-side fetch found its map outputs gone (node loss).

    Carries enough structure for lineage recovery: the DAG scheduler
    catches it, resubmits the parent ShuffleMapStage for exactly the
    lost map partitions, and requeues the failed reduce task once they
    are rebuilt — the RDD recovery path of Zaharia et al. (NSDI'12).
    """

    def __init__(self, shuffle_id: int, map_ids, node: str) -> None:
        self.shuffle_id = shuffle_id
        self.map_ids = list(map_ids)
        self.node = node
        super().__init__(
            f"shuffle {shuffle_id}: {len(self.map_ids)} map output(s) "
            f"lost with node {node!r}"
        )


class StorageError(ReproError):
    """Block storage / spill-file state is inconsistent or unreadable."""


class ModelError(ReproError):
    """A CHOPPER performance model could not be fitted or evaluated."""


class LedgerError(ReproError):
    """A run ledger file is missing, corrupt, or lacks the requested run."""


class WorkloadError(ReproError):
    """A workload was driven with invalid parameters or data."""
