(** Durable concurrent page store: {!Page_store.S} over a {!Paged_file} /
    {!Page_codec} stack. The decoded-node cache is the only page cache:
    a miss reads the page straight from the {!Paged_file} and decodes
    it, a write-back encodes the node and writes the page once, with no
    raw-frame pool in between. Cached pages are read lock-free and
    latched exactly like {!Store}; cache misses, eviction write-back and
    [release] serialise on the page's {e IO stripe} (pages are hashed
    across a power-of-two number of striped mutexes, each with its own
    page-sized IO buffer, so IO on distinct stripes proceeds in
    parallel), with one small file lock around each {!Paged_file} call.
    A recycled page raises [Freed_page] until its first [put] — the same
    contract as {!Store}.

    Eviction writes a dirty victim back inline, on the domain that
    pushed the stripe over its cap; with [sync] that is the only
    write-back path. A victim whose write-back fails goes back into its
    cache slot, still dirty, before the error surfaces, so the next
    eviction or [sync] retries it.

    Disk pages 0 and 1 are two checksummed header slots ping-ponged by a
    generation counter; tree pointer [p] lives on disk page [p + 2],
    checksummed by {!Page_codec}; the free list is threaded through the
    free pages themselves (checksummed entries) and rewritten on [sync]
    only when it changed. [sync] (quiescent) writes back every dirty
    node, stages the next generation's header into the alternate slot and
    commits it with a single fsync — crash-atomic under the model of
    {!Paged_file.create_shadow}; reopening falls back to the surviving
    slot when the other is torn, and degrades a damaged free chain to a
    leak instead of a failure (see doc/RECOVERY.md). Failpoint sites:
    [paged_store.fault], [paged_store.evict], [paged_store.sync.data],
    [paged_store.sync.chain], [paged_store.sync.header],
    [paged_store.sync.commit] (plus the {!Wal} sites [wal.append],
    [wal.commit], [wal.replay]).

    {b One durability path}: every store has a second paged file, its
    log device, and satisfies {!Page_store.S.commit} with a {e group
    commit} — the caller's completed operations are logged as physical
    page images through {!Wal} and made durable by a single batched log
    fsync, without quiescence and without writing the data file, so
    [commit] is safe from any number of domains at once. Dirty-page
    write-back is advisory (cache pressure and checkpoints drive it,
    but durability does not depend on it); [sync] is the
    {e checkpoint}: it writes everything back, appends a CHECKPOINT
    marker, flips the header (which records the log's incarnation and
    next LSN), and logically truncates the log. Reopening replays the
    tail of group-committed batches past the last checkpoint before the
    free chain is rebuilt, so [commit]-acknowledged state survives a
    crash with no [sync] ever issued; the LSN sequence continues across
    every reopen. A client's
    logical records ({!Page_store.S.log_logical}) ride the same group
    commits, and [sync] runs the client's {!Page_store.S.on_checkpoint}
    function before anything else, so the client can fold them into
    pages before the pass they live in ends. *)

exception Corrupt of string
(** A damaged header or page encountered while opening / faulting. *)

exception
  Shard_mismatch of {
    expected_index : int;
    expected_count : int;
    found_index : int;
    found_count : int;
  }
(** The store being opened records a different partition identity than
    the caller expected. Raised by [open_from]/[open_file] when
    [expect_shard] is given: silently opening shard i-of-N as j-of-M
    would misroute every key the {!Shard_router} hashes. *)

val default_page_size : int
(** 1024: the data page of an order-16 tree of int keys,
    {!Page_codec.page_size_for} [~key_bytes:8 ~order:16] — the page a
    store gets when its creator names none. A tree of higher order needs
    a larger page; its constructor passes one. *)

val default_cache_pages : int

val default_stripes : int
(** Default IO stripe count (clamped to a power of two ≤ [cache_pages]). *)

val default_commit_batch : int
(** Default group-commit batch target: 1 — every commit request seals
    and fsyncs immediately. *)

val default_commit_interval : float
(** Default gather window (seconds) a group-commit leader waits for
    followers when [commit_batch] > 1. *)

module Make (K : Key.S) : sig
  include Page_store.S with type key = K.t

  val create_memory :
    ?shard:int * int ->
    ?page_size:int ->
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    unit ->
    t
  (** Memory-backed data and log devices: the full pager stack (codec,
      node cache, eviction, group commit) without filesystem durability
      — tests and benches. [cache_pages] bounds the decoded-node cache
      (default {!default_cache_pages}); [stripes] the IO stripe count
      (default {!default_stripes}, rounded down to a power of two and
      clamped to [cache_pages]); [create] is [create_memory ()].
      [shard] (default [(0, 1)]) is the store's partition identity
      [(index, count)], recorded in every header it writes. [page_size]
      (default {!default_page_size}) must be a power of two of at least
      {!Page_codec.min_page_size}; it is recorded in the header, so a
      reopen needs no size.
      @raise Invalid_argument on any other [page_size]. *)

  val create_file :
    ?shard:int * int ->
    ?page_size:int ->
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    ?wal_path:string ->
    string ->
    t
  (** Create (or truncate) a file-backed store, its log device at
      [wal_path] (default [path ^ ".wal"]). *)

  val create_on :
    ?shard:int * int ->
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    wal:Paged_file.t ->
    Paged_file.t ->
    t
  (** Build a fresh store over an already-created (empty) paged file —
      how the crash harness runs the full stack on a
      {!Paged_file.create_shadow} device. [wal] is an empty log device
      sized {!Wal.log_page_size} (e.g. a second shadow file).
      [commit_interval] / [commit_batch] tune the group commit (defaults
      {!default_commit_interval} / {!default_commit_batch}). *)

  val open_file :
    ?expect_shard:int * int ->
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    ?wal_path:string ->
    string ->
    t
  (** Reopen a store that was {!Page_store.S.sync}ed ([flush]/[close]
      also sync). The page size is read from the header: slot 0's prefix
      names it, and when slot 0 is torn, slot 1 is found at the one
      power-of-two offset where a whole slot validates. Restores the
      allocator frontier, free list and
      metadata blob from the newest valid header slot, then replays the
      group-committed tail of the log at [wal_path] (default [path ^
      ".wal"]). A missing log file is created empty, so a store last
      checkpointed before it had a log opens from its header's
      checkpoint. [expect_shard] asserts the partition identity recorded in
      the header. @raise Corrupt when no header slot validates.
      @raise Shard_mismatch when [expect_shard] disagrees with the
      header. *)

  val open_from :
    ?expect_shard:int * int ->
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    wal:Paged_file.t ->
    Paged_file.t ->
    t
  (** {!open_file} over an already-open paged file (e.g. a
      {!Paged_file.crash_image}), at whatever page size it was opened:
      the device is re-cut ({!Paged_file.retile}) at the size its header
      records, and so is [wal], the already-open log device (e.g. its
      crash image), replayed via {!Wal.replay} before the free chain is
      rebuilt. *)

  val flush : t -> unit
  (** Alias of [sync]: write back dirty nodes, persist the free list and
      header, fsync. Quiescent only. *)

  val close : t -> unit
  (** [flush], then close the underlying file. *)

  (** {2 Introspection} *)

  val pool_stats : t -> Buffer_pool.stats
  (** Data-page IO in the pool's record: [misses] counts data-page reads
      (faults, and on-disk images a commit logs), [writebacks] counts
      data-page writes (eviction and [sync] write-backs). [hits]
      and [evictions] are always 0 — there is no raw-frame pool. Header,
      free-chain and replay-install IO is not counted. *)

  val cached_nodes : t -> int
  (** Currently resident decoded nodes (bounded by [cache_pages]). *)

  val page_size : t -> int

  val shard : t -> int * int
  (** The store's partition identity [(index, count)]; [(0, 1)] for an
      unsharded store. *)

  val stripe_count : t -> int
  (** Actual stripe count after power-of-two / cache clamping. *)

  val generation : t -> int
  (** Last generation committed by [sync] (0 before the first sync). *)

  val io_stats : t -> Stats.io
  (** Snapshot of fault / write-back / commit counters (racy by a few
      events while workers run; exact when quiescent). *)

  val per_stripe_faults : t -> int array
  (** Disk faults served per stripe — shows whether misses spread across
      stripes. *)

  (** {2 Replication}

      The primary side exposes the WAL's durable, LSN-contiguous stream
      ({!wal_fetch} / {!wal_wait}); the follower side installs shipped
      commit batches ({!apply_replicated}). See doc/RECOVERY.md for the
      commit-point argument. *)

  val wal_fetch : t -> lsn:int -> max_pages:int -> Wal.fetch
  (** Raw log pages starting at [lsn], bounded by the durable watermark
      (never ships records a crash could revoke). Thread-safe. *)

  val wal_wait : t -> lsn:int -> timeout:float -> bool
  (** Long-poll until some record at or past [lsn] is durable; [false]
      on timeout. *)

  val wal_durable_lsn : t -> int
  (** The shipping horizon: highest fsync-covered LSN (-1 before the
      first). *)

  val apply_replicated :
    ?gen:int ->
    ?logical:Bytes.t list ->
    t ->
    images:(int * Bytes.t) list ->
    meta:Bytes.t option ->
    unit
  (** Install one shipped commit batch: write each full page image
      straight to the data file (extending the allocation frontier over
      new pages, invalidating any cached copy), then publish [meta].
      For follower stores driven by a single apply loop; the caller
      rebuilds its tree view from [meta] after the batch lands. The
      batch's [logical] records (default none) are kept for
      {!replayed_logical}, so a client opened over the follower's store
      replays them; a batch of a higher [gen] (default 0) than the last
      drops the kept ones first, since the checkpoint between the two
      folded them. *)
end
