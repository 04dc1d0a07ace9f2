"""Abstract cache-state domain: per-set must/may residency with LRU ages.

CacheAudit-style abstract interpretation of the simulator's set-associative
LRU caches (:mod:`repro.mem.cache`), parameterised by the *real*
:class:`~repro.mem.hierarchy.HierarchyConfig` geometry so the static
verdicts are about the machine the scenarios actually run.

One :class:`CacheState` abstracts one cache level as, per set:

* **must** — ``block -> upper bound on its LRU age``.  A block present in
  ``must`` is *definitely cached* (its age bound is ``< assoc``, so it
  cannot have been evicted on any path): a demand access is a certain hit.
* **may** — ``block -> lower bound on its LRU age``.  A block absent from
  ``may`` (with :attr:`CacheState.may_universal` off) is *definitely not
  cached* on any path: a certain miss.  ``may_universal`` is the havoc
  top element — after an access whose address the analysis cannot
  resolve, any block may be resident.

The aging rules are the classic LRU must/may updates (Ferdinand-style),
with one refinement: the may analysis uses the must component's upper
bounds to decide when another block's lower bound *provably* increments
(``upper(c) < lower(b)`` means ``c`` is strictly more recent than the
accessed block ``b`` on every path).  On a fully concrete access sequence
from a cold cache the two components stay in lockstep (``lower == upper``
for every block) and the domain degenerates to an exact LRU simulation —
which is what lets :func:`repro.analysis.timing.timing_map` predict a
*point* cycle interval and the differential oracle compare it against the
simulator, cycle for cycle.

Two invariants hold for every reachable state and are preserved by every
transfer and by ``join`` (``tests/test_cachemodel.py`` exercises them):

* ``must ⊆ may`` (a certainly-present block is possibly present), and
* ``may[b] <= must[b]`` for shared blocks (bounds bracket the true age).

:class:`HierarchyState` stacks two levels as the simulator does — one
private L1D :class:`CacheState` per core over a shared inclusive L2 —
composes hit/miss classifications into the three latency classes of
:mod:`repro.mem.cache` (L1 hit, L2 hit, memory), and enforces inclusion: a
block can only stay in an L1's must side while it is in L2-must, because
an L2 eviction back-invalidates every L1 copy.  It covers demand traffic
(loads, write-allocating stores, software prefetches, clflush) and mirrors
the write-invalidate and prefetchw-exclusivity coherence steps of
:class:`repro.mem.hierarchy.MemoryHierarchy` as abstract transfers.  The
timing verifier (:mod:`repro.analysis.timing`) runs it with one core; the
scenario certifier (:mod:`repro.analysis.scenario`) with one core per
program.  Hardware prefetcher fills are not modelled concretely — the
certifier walks the undefended machine and applies each defense as an
abstract havoc transformer (:mod:`repro.analysis.defense`) instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.mem.hierarchy import HierarchyConfig

#: Classification labels (stable — CLI JSON output uses them).
HIT = "hit"
MISS = "miss"
UNKNOWN = "unknown"

#: Default cacheline geometry (``repro.utils.addr.AddressMap.block_size``).
DEFAULT_BLOCK_SIZE = 64


@dataclass(frozen=True)
class CacheGeometry:
    """Sets/ways/block-bits of one cache level (all powers of two)."""

    num_sets: int
    assoc: int
    block_bits: int

    def __post_init__(self) -> None:
        if self.num_sets <= 0 or self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two: {self.num_sets}")
        if self.assoc < 1:
            raise ValueError(f"assoc must be >= 1: {self.assoc}")
        if self.block_bits < 0:
            raise ValueError(f"block_bits must be >= 0: {self.block_bits}")

    def block_of(self, addr: int) -> int:
        """Block number (block address shifted right) of a byte address."""
        return addr >> self.block_bits

    def set_of(self, block: int) -> int:
        """Set index of a block number."""
        return block & (self.num_sets - 1)


def _level_geometry(size: int, assoc: int, block_size: int) -> CacheGeometry:
    return CacheGeometry(
        num_sets=size // (assoc * block_size),
        assoc=assoc,
        block_bits=block_size.bit_length() - 1,
    )


class CacheState:
    """Abstract residency state of one cache level (mutable, copyable)."""

    __slots__ = ("geometry", "_must", "_may", "may_universal")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # set index -> {block -> upper age bound}; entries always < assoc.
        self._must: dict[int, dict[int, int]] = {}
        # set index -> {block -> lower age bound}; entries always < assoc.
        self._may: dict[int, dict[int, int]] = {}
        # Top element of the may component: any block may be resident.
        self.may_universal = False

    # -- queries -------------------------------------------------------------

    def classify(self, block: int) -> str:
        """``HIT`` / ``MISS`` / ``UNKNOWN`` for a demand access to ``block``."""
        s = self.geometry.set_of(block)
        must = self._must.get(s)
        if must is not None and block in must:
            return HIT
        if self.may_universal:
            return UNKNOWN
        may = self._may.get(s)
        if may is None or block not in may:
            return MISS
        return UNKNOWN

    def any_hit_possible(self) -> bool:
        """Whether *some* address could hit (an unresolved access's best case)."""
        return self.may_universal or any(self._may.values())

    def must_blocks(self) -> frozenset[int]:
        """Blocks certainly resident (attacker-observable lower bound)."""
        return frozenset(
            block for per_set in self._must.values() for block in per_set
        )

    def may_blocks(self) -> frozenset[int] | None:
        """Blocks possibly resident, or ``None`` for the universal top."""
        if self.may_universal:
            return None
        return frozenset(
            block for per_set in self._may.values() for block in per_set
        )

    def set_blocks(self, block: int) -> list[int]:
        """Blocks the must or may side tracks in ``block``'s set."""
        s = self.geometry.set_of(block)
        return [*self._must.get(s, {}), *self._may.get(s, {})]

    # -- transfer functions ----------------------------------------------------

    def access(self, block: int) -> None:
        """Demand access (load or write-allocating store) to ``block``.

        Must aging: blocks provably more recent than ``b`` (upper bound
        below ``b``'s upper bound) may fall behind ``b``, so their upper
        bounds increment; an entry reaching ``assoc`` is no longer provably
        resident and is dropped.  May aging: a block's lower bound
        increments only when the increment is *guaranteed* — when ``b`` is
        a certain miss (a fresh insertion ages every resident line) or when
        the block is provably more recent than ``b``.
        """
        geometry = self.geometry
        assoc = geometry.assoc
        s = geometry.set_of(block)
        must = self._must.get(s)
        if must is None:
            must = self._must[s] = {}
        upper_b = must.get(block, assoc)
        pre_upper = dict(must)  # pre-access bounds: the aging test needs them
        for c, age in list(must.items()):
            if c != block and age < upper_b:
                if age + 1 >= assoc:
                    del must[c]
                else:
                    must[c] = age + 1
        must[block] = 0
        if self.may_universal:
            return
        may = self._may.get(s)
        if may is None:
            may = self._may[s] = {}
        lower_b = may.get(block)
        for c, age in list(may.items()):
            if c == block:
                continue
            upper_c = pre_upper.get(c)
            certainly_ahead = lower_b is not None and (
                upper_c is not None and upper_c < lower_b
            )
            if lower_b is None or certainly_ahead:
                if age + 1 >= assoc:
                    del may[c]
                    must.pop(c, None)  # lower > upper is vacuous: gone
                else:
                    may[c] = age + 1
        may[block] = 0

    def demote(self, block: int) -> None:
        """``block`` is no longer certainly resident; its may bound stays."""
        s = self.geometry.set_of(block)
        must = self._must.get(s)
        if must is not None and block in must:
            del must[block]
            if not must:
                del self._must[s]

    def flush(self, block: int) -> None:
        """Invalidate ``block`` (clflush / back-invalidation): certain miss.

        Remaining lines keep their upper bounds: removing a line never
        makes another line *older*.  Lower bounds, however, must retreat
        by one when the flushed line was possibly resident: its freed way
        absorbs one future insertion without evicting anyone, so every
        surviving line may effectively be one insertion *younger* than
        its bound claimed (``tests/test_defense_domain.py`` pins this
        against a reference LRU that fills invalid ways first).
        """
        s = self.geometry.set_of(block)
        must = self._must.get(s)
        if must is not None:
            must.pop(block, None)
            if not must:
                del self._must[s]
        may = self._may.get(s)
        if may is not None:
            freed_way = self.may_universal or block in may
            may.pop(block, None)
            if freed_way:
                for c in may:
                    if may[c] > 0:
                        may[c] -= 1
            if not may:
                del self._may[s]

    def havoc_access(self) -> None:
        """An access whose address is unknown: it may touch any set.

        Every must bound ages by one (the access could land in front of any
        line) and the may component goes universal (the touched block —
        whichever it is — becomes resident).
        """
        assoc = self.geometry.assoc
        for s, must in list(self._must.items()):
            for c, age in list(must.items()):
                if age + 1 >= assoc:
                    del must[c]
                else:
                    must[c] = age + 1
            if not must:
                del self._must[s]
        self._may = {}
        self.may_universal = True

    def havoc_flush(self) -> None:
        """A clflush whose address is unknown: any one line may vanish.

        No line is provably resident afterwards (must empties); the may
        component keeps its entries — a flush never *adds* residency —
        but every lower bound retreats by one, since the flush may have
        removed a more-recent line in that entry's set (see
        :meth:`flush`).
        """
        self._must = {}
        for may in self._may.values():
            for c in may:
                if may[c] > 0:
                    may[c] -= 1

    # -- lattice operations ----------------------------------------------------

    def copy(self) -> "CacheState":
        dup = CacheState(self.geometry)
        dup._must = {s: dict(d) for s, d in self._must.items()}
        dup._may = {s: dict(d) for s, d in self._may.items()}
        dup.may_universal = self.may_universal
        return dup

    def join(self, other: "CacheState") -> "CacheState":
        """Least upper bound: control-flow merge of two predecessor states."""
        if self.geometry != other.geometry:
            raise ValueError("cannot join states of different geometries")
        joined = CacheState(self.geometry)
        for s, must in self._must.items():
            other_must = other._must.get(s)
            if other_must is None:
                continue
            merged = {
                block: max(age, other_must[block])
                for block, age in must.items()
                if block in other_must
            }
            if merged:
                joined._must[s] = merged
        if self.may_universal or other.may_universal:
            joined.may_universal = True
            return joined
        for s in self._may.keys() | other._may.keys():
            a = self._may.get(s, {})
            b = other._may.get(s, {})
            merged = dict(b)
            for block, age in a.items():
                existing = merged.get(block)
                merged[block] = age if existing is None else min(age, existing)
            if merged:
                joined._may[s] = merged
        return joined

    def leq(self, other: "CacheState") -> bool:
        """Partial order: ``self`` is at least as precise as ``other``."""
        if self.geometry != other.geometry:
            return False
        for s, other_must in other._must.items():
            must = self._must.get(s, {})
            for block, age in other_must.items():
                mine = must.get(block)
                if mine is None or mine > age:
                    return False
        if other.may_universal:
            return True
        if self.may_universal:
            return False
        for s, may in self._may.items():
            other_may = other._may.get(s, {})
            for block, age in may.items():
                theirs = other_may.get(block)
                if theirs is None or theirs > age:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheState):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.may_universal == other.may_universal
            and self._must == other._must
            and (self.may_universal or self._may == other._may)
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, not hashed
        raise TypeError("CacheState is mutable and unhashable")

    def __repr__(self) -> str:
        may = "universal" if self.may_universal else dict(self._may)
        return f"CacheState(must={self._must!r}, may={may!r})"


@dataclass(frozen=True)
class LatencyInterval:
    """Closed interval of cycles an access may cost."""

    lo: int
    hi: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


def _restore_inclusion(
    l1s: Sequence[CacheState],
    l2: CacheState,
    checked: Iterable[int],
    exclusive: dict[int, int] | None = None,
) -> None:
    """L2 evictions back-invalidate every L1: keep the abstraction inclusive.

    A block stays certainly-in-L1 only while certainly-in-L2 (otherwise a
    possible L2 eviction may have knocked it out); a block certainly
    evicted from L2 is certainly gone from every L1, and its ``prefetchw``
    ownership record dies with the line, as
    :meth:`repro.mem.hierarchy.MemoryHierarchy._back_invalidate` drops it.

    Only the ``checked`` blocks are examined.  Callers pass every block the
    transfer could have demoted: after a demand fill, the accessed block
    plus every block the L2 tracked in that block's set before the fill
    (the only L2 set a fill ages); after a havoc, every block the L1
    tracks.  Every L1 that was inclusive before the transfer is inclusive
    again afterwards.
    """
    verdicts = [(block, l2.classify(block)) for block in sorted(set(checked))]
    for l1 in l1s:
        for block, verdict in verdicts:
            if verdict == MISS:
                l1.flush(block)
            elif verdict == UNKNOWN:
                l1.demote(block)
    if exclusive:
        for block, verdict in verdicts:
            if verdict == MISS:
                exclusive.pop(block, None)


class HierarchyState:
    """N private L1D states over one shared inclusive L2, with coherence.

    The abstract counterpart of :class:`repro.mem.hierarchy.MemoryHierarchy`
    for ``num_cores`` cores.  An L1 hit pays ``l1_hit_latency``; an L1 miss
    adds the L2 outcome (``l2_hit_latency`` or ``memory_latency``).  The
    coherence steps are mirrored as transfers on the must/may domain:

    * a demand access by one core to a line another core holds
      *exclusively* (after ``prefetchw``) steals it: the owner's L1 copy
      is invalidated and the exclusivity record dropped;
    * a store write-allocates like a load, invalidates the line in every
      other core's L1 (write-invalidate) and costs one cycle under
      ``nonblocking_stores``;
    * ``prefetchw`` invalidates other copies (paying
      ``prefetchw_snoop_latency`` when one existed) and records the
      issuing core as exclusive owner;
    * an L2 eviction back-invalidates the line in every core's L1 and
      drops its ownership record;
    * ``clflush`` evicts the line from every cache, everywhere, and always
      costs ``flush_latency``.

    ``addr=None`` is an access whose address the analysis could not
    resolve: it havocs the accessing core's L1 and the L2.  For loads,
    stores and prefetches that path is single-core, because it models no
    steal or write-invalidate; a walk over more than one core raises
    ``_Unresolved`` before it would ever issue one.
    """

    __slots__ = ("config", "num_cores", "l1s", "l2", "exclusive", "block_bits")

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        num_cores: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1: {num_cores}")
        self.config = config or HierarchyConfig()
        self.num_cores = num_cores
        l1_geometry = _level_geometry(
            self.config.l1d_size, self.config.l1d_assoc, block_size
        )
        self.l1s = tuple(CacheState(l1_geometry) for _ in range(num_cores))
        self.l2 = CacheState(
            _level_geometry(
                self.config.l2_size, self.config.l2_assoc, block_size
            )
        )
        #: block -> owning core; records are *certain* (the deterministic
        #: product walk never merges states with differing ownership, and
        #: ``join`` pre-resolves uncertain records conservatively).
        self.exclusive: dict[int, int] = {}
        self.block_bits = block_size.bit_length() - 1

    # -- latency classes -------------------------------------------------------

    @property
    def l1_latency(self) -> int:
        return self.config.l1_hit_latency

    @property
    def l2_latency(self) -> int:
        return self.config.l1_hit_latency + self.config.l2_hit_latency

    @property
    def memory_latency(self) -> int:
        return (
            self.config.l1_hit_latency
            + self.config.l2_hit_latency
            + self.config.memory_latency
        )

    def block_of(self, addr: int) -> int:
        return addr >> self.block_bits

    # -- internal helpers ------------------------------------------------------

    def _yield_exclusivity(self, core: int, block: int) -> None:
        """Steal an exclusively held line when another core touches it."""
        owner = self.exclusive.get(block)
        if owner is None or owner == core:
            return
        self.l1s[owner].flush(block)
        del self.exclusive[block]

    def _fill_interval(self, core: int, block: int) -> LatencyInterval:
        """Latency of ``core``'s demand access classified against both levels.

        Mutates both levels exactly as the simulator's demand path does:
        the L1 is always accessed; the L2 is accessed only when the L1
        misses (joined when the L1 outcome is unknown).
        """
        l1 = self.l1s[core]
        l1_class = l1.classify(block)
        if l1_class == HIT:
            l1.access(block)
            return LatencyInterval(self.l1_latency, self.l1_latency)
        l2_class = self.l2.classify(block)
        checked = [block, *self.l2.set_blocks(block)]
        if l1_class == MISS:
            self.l2.access(block)
            l1.access(block)
            _restore_inclusion(self.l1s, self.l2, checked, self.exclusive)
            if l2_class == HIT:
                return LatencyInterval(self.l2_latency, self.l2_latency)
            if l2_class == MISS:
                return LatencyInterval(self.memory_latency, self.memory_latency)
            return LatencyInterval(self.l2_latency, self.memory_latency)
        # Unknown at L1: the L2 may or may not see the access.
        touched = self.l2.copy()
        touched.access(block)
        self.l2 = self.l2.join(touched)
        l1.access(block)
        _restore_inclusion(self.l1s, self.l2, checked, self.exclusive)
        hi = self.l2_latency if l2_class == HIT else self.memory_latency
        return LatencyInterval(self.l1_latency, hi)

    def _havoc_interval(self, core: int) -> LatencyInterval:
        """Latency bounds for a (single-core) access that never resolved."""
        l1 = self.l1s[core]
        if l1.any_hit_possible():
            lo = self.l1_latency
        elif self.l2.any_hit_possible():
            lo = self.l2_latency
        else:
            lo = self.memory_latency
        l1.havoc_access()
        self.l2.havoc_access()
        # The L2 havoc ages every set, so every block the L1 tracks is
        # checked; the L1's may side is now universal and tracks none.
        _restore_inclusion(self.l1s, self.l2, l1.must_blocks())
        return LatencyInterval(lo, self.memory_latency)

    # -- demand interface ------------------------------------------------------

    def load(self, core: int, addr: int | None) -> LatencyInterval:
        """Demand load by ``core``: steal exclusivity, then fill."""
        if addr is None:
            return self._havoc_interval(core)
        block = self.block_of(addr)
        self._yield_exclusivity(core, block)
        return self._fill_interval(core, block)

    def store(self, core: int, addr: int | None) -> LatencyInterval:
        """Demand store: write-allocate + write-invalidate other L1 copies."""
        if addr is None:
            fill = self._havoc_interval(core)
        else:
            block = self.block_of(addr)
            self._yield_exclusivity(core, block)
            fill = self._fill_interval(core, block)
            for other, l1 in enumerate(self.l1s):
                if other != core:
                    l1.flush(block)
        if self.config.nonblocking_stores:
            return LatencyInterval(1, 1)
        return fill

    def prefetch(
        self,
        core: int,
        addr: int | None,
        write: bool = False,
        *,
        may_drop: bool = False,
    ) -> LatencyInterval:
        """Software prefetch / prefetchw: load-shaped latency.

        The simulator drops a prefetch only when the line misses the L1
        *and* no prefetch MSHR is free.  A blocking core pays the full fill
        latency before its next access, so the MSHR is free again by then
        and the prefetch completes: a multi-core walk's case, which
        ``tests/test_certify_oracle.py`` pins against the simulator.  An
        OoO core such as ``PERF_CORE`` may issue its next access while the
        MSHR is still busy; a one-core walk passes ``may_drop=True``, and
        an L1 miss then joins the filled state with the untouched one and
        widens the interval down to the L1 latency a dropped prefetch pays.

        ``prefetchw`` pays the snoop penalty when another core's copy was
        invalidated; when a copy's residency is only *possible* the
        penalty widens the upper bound instead (the walker then gives up,
        keeping the verdict sound).
        """
        if addr is None:
            interval = self._havoc_interval(core)
            return LatencyInterval(self.l1_latency, interval.hi)
        block = self.block_of(addr)
        untouched: HierarchyState | None = None
        if may_drop and self.l1s[core].classify(block) != HIT:
            untouched = self.copy()
        snoop_lo = snoop_hi = 0
        if write:
            penalty = self.config.prefetchw_snoop_latency
            for other, l1 in enumerate(self.l1s):
                if other == core:
                    continue
                residency = l1.classify(block)
                if residency != MISS:
                    l1.flush(block)
                    if residency == HIT:
                        snoop_lo = snoop_hi = penalty
                    else:
                        snoop_hi = penalty
            self.exclusive[block] = core
        else:
            self._yield_exclusivity(core, block)
        fill = self._fill_interval(core, block)
        if untouched is not None:
            # A dropped prefetch leaves no fill and no ownership change.
            joined = self.join(untouched)
            self.l1s, self.l2, self.exclusive = (
                joined.l1s, joined.l2, joined.exclusive
            )
            return LatencyInterval(self.l1_latency, fill.hi + snoop_hi)
        return LatencyInterval(fill.lo + snoop_lo, fill.hi + snoop_hi)

    def flush(self, core: int, addr: int | None) -> LatencyInterval:
        """clflush: evict the line from every cache level, everywhere."""
        if addr is None:
            for l1 in self.l1s:
                l1.havoc_flush()
            self.l2.havoc_flush()
        else:
            block = self.block_of(addr)
            self.exclusive.pop(block, None)
            for l1 in self.l1s:
                l1.flush(block)
            self.l2.flush(block)
        latency = self.config.flush_latency
        return LatencyInterval(latency, latency)

    # -- queries ---------------------------------------------------------------

    def observable(self, core: int) -> tuple[object, ...]:
        """``core``'s attacker-observable residency (its L1 + shared L2)."""
        return (
            self.l1s[core].must_blocks(),
            self.l1s[core].may_blocks(),
            self.l2.must_blocks(),
            self.l2.may_blocks(),
        )

    # -- lattice operations ----------------------------------------------------

    def copy(self) -> "HierarchyState":
        dup = HierarchyState.__new__(HierarchyState)
        dup.config = self.config
        dup.num_cores = self.num_cores
        dup.l1s = tuple(map(CacheState.copy, self.l1s))
        dup.l2 = self.l2.copy()
        dup.exclusive = dict(self.exclusive)
        dup.block_bits = self.block_bits
        return dup

    def join(self, other: "HierarchyState") -> "HierarchyState":
        """Least upper bound over both cache states and ownership records.

        Ownership kept only where both sides agree; a record present on
        one side only (or with differing owners) means a later steal is
        merely *possible*, so the join pre-resolves it conservatively: the
        record is dropped and the recorded owner's line demoted out of
        must (its may entry survives — the steal may never happen).
        """
        if self.num_cores != other.num_cores:
            raise ValueError("cannot join states with different core counts")
        joined = HierarchyState.__new__(HierarchyState)
        joined.config = self.config
        joined.num_cores = self.num_cores
        joined.l1s = tuple(map(CacheState.join, self.l1s, other.l1s))
        joined.l2 = self.l2.join(other.l2)
        joined.block_bits = self.block_bits
        joined.exclusive = {}
        for block, owner in self.exclusive.items():
            if other.exclusive.get(block) == owner:
                joined.exclusive[block] = owner
        uncertain = (
            set(self.exclusive.items()) | set(other.exclusive.items())
        ) - set(joined.exclusive.items())
        for block, owner in sorted(uncertain):
            joined.l1s[owner].demote(block)
        return joined

    def leq(self, other: "HierarchyState") -> bool:
        return (
            self.num_cores == other.num_cores
            and self.exclusive == other.exclusive
            and all(a.leq(b) for a, b in zip(self.l1s, other.l1s))
            and self.l2.leq(other.l2)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchyState):
            return NotImplemented
        return (
            self.config == other.config
            and self.num_cores == other.num_cores
            and self.l1s == other.l1s
            and self.l2 == other.l2
            and self.exclusive == other.exclusive
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, not hashed
        raise TypeError("HierarchyState is mutable and unhashable")


class MultiCoreHierarchyState(HierarchyState):
    """Former name of the multi-core model, kept for the perfbench tracer.

    ``perfbench/spans.py`` wraps the transfer methods of this class and of
    :class:`HierarchyState` by name.  The subclass defines no method of its
    own, so the tracer wraps each transfer once.  Use :class:`HierarchyState`.
    """

    __slots__ = ()
