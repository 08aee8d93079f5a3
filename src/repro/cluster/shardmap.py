"""Chunk-to-shard placement and query planning for the cluster layer.

A :class:`ShardMap` partitions a table's logical chunks across several shard
simulators the same way :class:`repro.storage.volumes.VolumeLayout`
partitions them across disk volumes — it *is* a volume layout, reused one
level up: ``"range"`` placement gives each shard one contiguous chunk range
(the classic partitioned table), ``"striped"`` round-robins chunks across
shards.

On top of the placement geometry the map does the cluster's query planning:
:meth:`ShardMap.plan_groups` groups one global :class:`ScanRequest`'s chunks
by primary shard, and :meth:`ShardMap.sub_request` materialises a group as
a sub-query whose chunk ids are *shard-local* (each shard simulator models
its own table of ``chunks_owned(shard)`` chunks numbered from zero).
Locality is what keeps per-shard seek accounting honest: chunks that are
adjacent inside a shard's range stay adjacent in the sub-query.  A query
touching one shard of an unreplicated map yields exactly one sub-query
identical to the original when materialised under its own id (which is
what makes a 1-shard cluster reproduce the single-simulator service bit
for bit).

With ``replicas=R > 1`` the map uses *chained declustering*: replica ``r``
of primary shard ``p``'s chunk range lives on shard ``(p + r) % N``, so
each shard stores its own primary range plus the ranges of its ``R - 1``
predecessors, and losing any single shard leaves every chunk readable on
``R - 1`` other shards.  A shard's local table enumerates everything it
*stores* (sorted by global chunk id); :meth:`sub_request` translates a
chunk group to whichever replica the coordinator picked.  ``replicas=1``
stores exactly the primary ranges, and every local id coincides with
:meth:`VolumeLayout.local_index` — the unreplicated geometry, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.core.cscan import ScanRequest
from repro.storage.volumes import VolumeLayout


@dataclass(frozen=True)
class ShardMap:
    """Deterministic mapping of logical chunks onto cluster shards.

    Attributes
    ----------
    num_chunks:
        Number of logical chunks of the (global) table being sharded.
    num_shards:
        Number of shard simulators.
    placement:
        ``"range"`` (contiguous chunk range per shard) or ``"striped"``.
    replicas:
        Copies of each primary chunk range, placed by chained declustering
        (replica *r* of primary *p* on shard ``(p + r) % num_shards``).
    """

    num_chunks: int
    num_shards: int = 1
    placement: str = "range"
    replicas: int = 1
    #: The underlying chunk->shard geometry (a volume layout, reused).
    _layout: VolumeLayout = field(init=False, repr=False, compare=False)
    #: Per-shard tuple of every global chunk the shard stores (all replicas),
    #: sorted by global chunk id — the shard's local table enumeration.
    _stored: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    #: Per-shard map from global chunk id to its shard-local position.
    _local: Tuple[Dict[int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # A disk may have more volumes than chunks, but a shard must own at
        # least one chunk — a zero-chunk shard has no table to simulate and
        # would only fail later, deep inside ABM construction.
        if self.num_shards > self.num_chunks:
            raise ConfigurationError(
                f"cannot shard {self.num_chunks} chunks across "
                f"{self.num_shards} shards (every shard must own at least "
                "one chunk)"
            )
        if not 1 <= self.replicas <= self.num_shards:
            raise ConfigurationError(
                f"replicas must be between 1 and num_shards="
                f"{self.num_shards}, got {self.replicas}"
            )
        layout = VolumeLayout(
            num_chunks=self.num_chunks,
            num_volumes=self.num_shards,
            placement=self.placement,
        )
        object.__setattr__(self, "_layout", layout)
        # Range placement rounds the per-shard range up, so uneven splits
        # can starve trailing shards even with shards <= chunks (e.g. 10
        # chunks across 6 shards leaves the last shard empty).  With
        # replication the check still applies to the *primary* ranges: an
        # empty primary range would leave that shard nothing to lead on and
        # replica placement asymmetric.
        empty = [
            shard
            for shard in range(self.num_shards)
            if not layout.chunks_on(shard)
        ]
        if empty:
            raise ConfigurationError(
                f"{self.placement!r} placement of {self.num_chunks} chunks "
                f"across {self.num_shards} shards leaves shard(s) {empty} "
                "with no chunks; use fewer shards or striped placement"
            )
        stored: List[Tuple[int, ...]] = []
        local: List[Dict[int, int]] = []
        for shard in range(self.num_shards):
            chunks = sorted(
                {
                    chunk
                    for replica in range(self.replicas)
                    for chunk in layout.chunks_on(
                        (shard - replica) % self.num_shards
                    )
                }
            )
            stored.append(tuple(chunks))
            local.append({chunk: rank for rank, chunk in enumerate(chunks)})
        object.__setattr__(self, "_stored", tuple(stored))
        object.__setattr__(self, "_local", tuple(local))

    @classmethod
    def from_cluster_config(
        cls, cluster: ClusterConfig, num_chunks: int
    ) -> "ShardMap":
        """Build the shard map described by a :class:`ClusterConfig`."""
        return cls(
            num_chunks=num_chunks,
            num_shards=cluster.shards,
            placement=cluster.placement,
            replicas=cluster.replicas,
        )

    # ------------------------------------------------------------ geometry
    def shard_of(self, chunk: int) -> int:
        """*Primary* shard of the given global chunk."""
        return self._layout.volume_of(chunk)

    def replica_shards(self, primary: int) -> Tuple[int, ...]:
        """Every shard storing the given primary shard's chunk range.

        The first entry is the primary itself; the rest follow the chained
        declustering ring order.
        """
        return tuple(
            (primary + replica) % self.num_shards
            for replica in range(self.replicas)
        )

    def local_chunk_on(self, shard: int, chunk: int) -> int:
        """Local id of a global chunk on any shard that stores it."""
        try:
            return self._local[shard][chunk]
        except KeyError as exc:
            raise ConfigurationError(
                f"shard {shard} stores no copy of chunk {chunk} "
                f"(replicas={self.replicas})"
            ) from exc

    def chunks_owned(self, shard: int) -> int:
        """Number of chunks one shard stores (its local table size)."""
        return len(self._stored[shard])

    # ------------------------------------------------------------- planning
    def plan_groups(self, spec: ScanRequest) -> Dict[int, Tuple[int, ...]]:
        """Group a query's *global* chunks by primary shard.

        The routing-agnostic half of planning: each group can be
        materialised on any of its primary's :meth:`replica_shards` via
        :meth:`sub_request`.
        """
        by_primary: Dict[int, List[int]] = {}
        for chunk in spec.chunks:
            by_primary.setdefault(self.shard_of(chunk), []).append(chunk)
        return {
            primary: tuple(sorted(chunks))
            for primary, chunks in sorted(by_primary.items())
        }

    def sub_request(
        self,
        spec: ScanRequest,
        global_chunks: Sequence[int],
        shard: int,
        sub_id: int,
    ) -> ScanRequest:
        """Materialise one chunk group as a sub-query on a chosen replica.

        ``sub_id`` becomes the sub-query's ``query_id`` (the coordinator
        passes the whole query's id for an original copy on an unreplicated
        map and synthesises unique ids otherwise, so re-scatters and hedges
        never collide on a shard); the chunks are translated to ``shard``'s
        local table.
        """
        return ScanRequest(
            query_id=sub_id,
            name=spec.name,
            chunks=tuple(
                sorted(
                    self.local_chunk_on(shard, chunk)
                    for chunk in global_chunks
                )
            ),
            columns=spec.columns,
            cpu_per_chunk=spec.cpu_per_chunk,
            query_class=spec.query_class,
        )

    def validate_shard_tables(self, shard_chunk_counts: Tuple[int, ...]) -> None:
        """Check that per-shard table sizes match the chunks each shard stores.

        ``shard_chunk_counts[i]`` is the number of chunks shard *i*'s ABM
        models; a mismatch would silently mis-route sub-query chunks.
        """
        if len(shard_chunk_counts) != self.num_shards:
            raise ConfigurationError(
                f"cluster has {self.num_shards} shards but "
                f"{len(shard_chunk_counts)} shard tables were supplied"
            )
        for shard, count in enumerate(shard_chunk_counts):
            owned = self.chunks_owned(shard)
            if count != owned:
                raise ConfigurationError(
                    f"shard {shard} stores {owned} chunks of the table but "
                    f"its ABM models {count}"
                )

    def describe(self) -> Dict[str, object]:
        """Flat description of the sharding (for reports)."""
        described: Dict[str, object] = {
            "num_chunks": self.num_chunks,
            "num_shards": self.num_shards,
            "shard_placement": self.placement,
            "shard_sizes": [len(stored) for stored in self._stored],
        }
        if self.replicas > 1:
            described["replicas"] = self.replicas
        return described
