"""Parallel execution subsystem: campaign fan-out over a spawn-safe
process pool.

:class:`~repro.parallel.campaign.Campaign` fans a figure/table grid out
as independent cells (``repro campaign fig7 --workers N``) on the pool
of :mod:`repro.parallel.pool`, memoised in a content-addressed,
crash-safe disk cache (:class:`~repro.parallel.cellcache.CellCache`).

``workers=0`` means the serial path, bit-identical to the parallel one.
See docs/ARCHITECTURE.md for the pool lifecycle.
"""

from repro.parallel.campaign import (
    CAMPAIGN_FIGURES,
    Campaign,
    CampaignError,
    CellOutcome,
    CellSpec,
    comparison_cells,
    install_results,
)
from repro.parallel.cellcache import CELL_CACHE_FORMAT, CellCache
from repro.parallel.pool import (
    WorkerPool,
    get_pool,
    reset_pool,
    shutdown_pool,
)

__all__ = [
    "CAMPAIGN_FIGURES",
    "Campaign",
    "CampaignError",
    "CellOutcome",
    "CellSpec",
    "CELL_CACHE_FORMAT",
    "CellCache",
    "WorkerPool",
    "comparison_cells",
    "get_pool",
    "install_results",
    "reset_pool",
    "shutdown_pool",
]
