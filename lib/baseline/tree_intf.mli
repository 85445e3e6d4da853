(** First-class uniform interface over the concurrent trees (int keys),
    for the workload driver and the benches. *)

open Repro_core

type sharding = {
  shard_count : int;
  shard_of_key : int -> int;
      (** deterministic key → shard routing ({!Repro_storage.Shard_router}) *)
  commit_shard : int -> unit;
      (** durably commit one shard's completed operations — independent
          shards' commits run fully in parallel (separate WALs, separate
          group-commit leaders) *)
}

type snap = {
  snap_epoch : int;  (** the cut's boundary epoch *)
  snap_search : Handle.ctx -> int -> int option;
      (** point read at the cut: the value bound at pin time, whatever
          writers have done since *)
  snap_range : Handle.ctx -> lo:int -> hi:int -> (int * int) list;
      (** consistent ordered scan at the cut — on a sharded handle the
          k-way merge reads every shard at the same cut *)
  snap_release : unit -> unit;  (** unpin (idempotent) *)
}
(** A pinned point-in-time view over an MVCC-backed handle. Holding it
    costs writers nothing; it only defers version pruning. *)

type mvcc_gauges = {
  g_min_pinned : int;  (** reclamation horizon; [max_int] = nothing pinned *)
  g_snap_pins : int;  (** snapshots currently held *)
  g_live_versions : int;  (** version records across all chains *)
  g_pruned_versions : int;  (** versions pruned since creation *)
  g_gc_pending : int;  (** vacuum candidates queued *)
}

type mvcc = {
  snapshot : unit -> snap;
      (** pin a consistent cut (single cut across all shards on a
          sharded handle) — O(1), never blocks writers *)
  vacuum : Handle.ctx -> int;
      (** prune cold version tails, physically remove dead pairs behind
          every pin, release reclaimable slots/pages; returns pairs
          removed *)
  gauges : unit -> mvcc_gauges;
}
(** The snapshot surface of an MVCC-backed handle. *)

type handle = {
  name : string;
  search : Handle.ctx -> int -> int option;
  insert : Handle.ctx -> int -> int -> [ `Ok | `Duplicate ];
  delete : Handle.ctx -> int -> bool;
  cardinal : unit -> int;
  height : unit -> int;
  commit : unit -> unit;
      (** durably commit completed operations (group commit on the
          disk backend, no-op in memory) — callable from any worker
          domain *)
  range : (Handle.ctx -> lo:int -> hi:int -> (int * int) list) option;
      (** lock-free ordered scan of [lo <= key <= hi] along the leaf
          chain; [None] on backends without one (the network server
          answers RANGE with "unsupported" there). {b Weak}: not a
          consistent cut under concurrent writers; use [mvcc] for
          point-in-time scans *)
  sharding : sharding option;
      (** partition-layer surface: present on sharded handles so the
          server can route batches and commit only the shards a batch
          touched; [None] on monolithic backends *)
  bulk_add : (?fill:float -> (int * int) list -> bool) option;
      (** quiescent bulk load of strictly ascending pairs into an
          {e empty} tree ([false] = tree not empty, caller falls back to
          [insert]); [None] on backends without a packing constructor.
          [fill] is the node-packing fraction (default 0.9 — dense);
          preload paths that model an incrementally built tree pass a
          lower fill so nodes start near the compaction threshold *)
  mvcc : mvcc option;
      (** snapshot surface: present on version-stamped backends
          ([sagiv-mvcc] and its sharded composition); [None] elsewhere *)
}

type impl = { impl_name : string; make : order:int -> handle }

(** The common operation shape a backend exposes to be wrapped. *)
module type TREE_OPS = sig
  type t

  val search : t -> Handle.ctx -> int -> int option
  val insert : t -> Handle.ctx -> int -> int -> [ `Ok | `Duplicate ]
  val delete : t -> Handle.ctx -> int -> bool
  val cardinal : t -> int
  val height : t -> int
end

val of_ops :
  ?commit:(unit -> unit) ->
  ?range:(Handle.ctx -> lo:int -> hi:int -> (int * int) list) ->
  ?sharding:sharding ->
  ?bulk_add:(?fill:float -> (int * int) list -> bool) ->
  ?mvcc:mvcc ->
  name:string ->
  (module TREE_OPS with type t = 'a) ->
  'a ->
  handle
(** Close a tree value over its operations — the base constructor of
    {!handle}, so a new backend registers in a few lines. [commit]
    defaults to a no-op; [range] to unsupported; [sharding] and
    [bulk_add] to [None]. *)

val sharded : name:string -> handle array -> handle
(** Compose per-shard handles into one: every keyed operation routes
    through {!Repro_storage.Shard_router.shard_of} over the array
    length; [cardinal] sums, [height] maxes, [commit] commits every
    shard, [range] k-way merges the per-shard ordered scans (present iff
    every shard supports it). The result's [sharding] field exposes the
    router and per-shard commit; [bulk_add] partitions the sorted pairs
    per shard (present iff every shard supports it). *)

module Paged_int : module type of Repro_storage.Paged_store.Make (Repro_storage.Key.Int)
(** The durable int-keyed page store the disk impls run on. *)

module Sagiv_disk :
    module type of Sagiv.Make_on_store (Repro_storage.Key.Int) (Paged_int)
(** The Sagiv tree instantiated over {!Paged_int}. *)

module Sharded_int :
    module type of Repro_storage.Sharded_store.Make (Repro_storage.Key.Int) (Paged_int)
(** The partition layer over {!Paged_int}: N independent stores managed
    as one unit (parallel reopen/recovery, per-shard group commit). *)

val sagiv : ?enqueue_on_delete:bool -> unit -> impl

val sagiv_raw :
  ?enqueue_on_delete:bool ->
  order:int ->
  unit ->
  (int, int Repro_storage.Store.t) Handle.t * handle
(** Like {!sagiv} but also hands back the raw tree, for running
    compaction workers or validation alongside. *)

module Mvcc_int : module type of Mvcc.Make (Repro_storage.Key.Int)
(** The MVCC store (version-stamped records under the Sagiv index)
    instantiated at int keys and int payloads. *)

val sagiv_mvcc : ?enqueue_on_delete:bool -> unit -> impl
(** The Sagiv tree over version-chained records: same point-op surface,
    plus the [mvcc] snapshot field ([impl_name] ["sagiv-mvcc"]). *)

val sagiv_mvcc_raw :
  ?enqueue_on_delete:bool -> order:int -> unit -> int Mvcc_int.t * handle
(** {!sagiv_mvcc} handing back the typed store, for callers that also
    scan or vacuum through the {!Mvcc_int} API directly. *)

val sagiv_mvcc_sharded :
  ?enqueue_on_delete:bool -> shards:int -> unit -> impl
(** [shards] MVCC trees sharing one epoch clock, routed like {!sharded};
    [mvcc.snapshot] is a {e group} snapshot — one pin + tick + wait, and
    the k-way merged [snap_range] is one point-in-time cut across all
    shards ([impl_name] ["sagiv-mvcc-x<shards>"]). *)

val sagiv_mvcc_sharded_raw :
  ?enqueue_on_delete:bool ->
  shards:int ->
  order:int ->
  unit ->
  int Mvcc_int.t array * handle

val page_size_for_order : int -> int
(** The data page of an int-keyed tree of this order:
    {!Repro_storage.Page_codec.page_size_for} at 8-byte keys (512 up to
    order 7, 1024 at 16, 4096 at 64). Every disk constructor below that
    creates its store sizes it so, and every one handed a store raises
    [Invalid_argument] before touching it when the order's largest node
    frame would not fit its page. *)

val sagiv_disk :
  ?enqueue_on_delete:bool ->
  ?cache_pages:int ->
  ?stripes:int ->
  ?commit_interval:float ->
  ?commit_batch:int ->
  unit ->
  impl
(** {!sagiv} over {!Repro_storage.Paged_store} (memory-backed data and
    log devices: codec + node cache + eviction + group commit, no
    filesystem) with {!page_size_for_order} pages. [stripes] selects the
    store's IO stripe count; the handle's [commit] group-commits through
    the log ([commit_interval] / [commit_batch] tune it). *)

val sagiv_disk_raw :
  ?enqueue_on_delete:bool ->
  ?cache_pages:int ->
  ?stripes:int ->
  ?commit_interval:float ->
  ?commit_batch:int ->
  order:int ->
  unit ->
  (int, Paged_int.t) Handle.t * handle
(** {!sagiv_raw} for the disk backend; the store (for [io_stats],
    [flush]) is the raw handle's [store] field. *)

val sagiv_disk_sharded_on :
  ?enqueue_on_delete:bool ->
  order:int ->
  Sharded_int.t ->
  (int, Paged_int.t) Handle.t array * handle
(** One fresh Sagiv tree per shard of an existing {!Sharded_int.t},
    composed with {!sharded} — how file-backed callers (CLI serve,
    benches) shard: create the store themselves, then wrap.
    @raise Invalid_argument when a full node of [order] does not fit
    the stores' pages. *)

val sagiv_disk_sharded_open :
  ?enqueue_on_delete:bool ->
  Sharded_int.t ->
  (int, Paged_int.t) Handle.t array * handle
(** Rebuild the routed handle over a reopened {!Sharded_int.t} (every
    shard's tree metadata was flushed, or recovered from its WAL).
    @raise Invalid_argument when a full node of the recorded order does
    not fit the stores' pages. *)

val sagiv_disk_sharded_raw :
  ?enqueue_on_delete:bool ->
  ?cache_pages:int ->
  ?stripes:int ->
  ?commit_interval:float ->
  ?commit_batch:int ->
  shards:int ->
  order:int ->
  unit ->
  Sharded_int.t * (int, Paged_int.t) Handle.t array * handle
(** Memory-backed sharded disk tree: [shards] fully independent
    {!Paged_int} stores (own node cache, WAL, group-commit leader), one
    Sagiv tree each, routed by the {!Repro_storage.Shard_router}. Every
    per-store knob applies per shard. *)

module Mvcc_disk : module type of Mvcc.Make_on_store (Repro_storage.Key.Int) (Paged_int)
(** The MVCC store over {!Paged_int} — the durable composition: tree and
    version chains share one paged store, one WAL, one group commit. *)

val mvcc_disk_sub_handle : int Mvcc_disk.t -> name:string -> handle
(** A per-shard handle over one durable MVCC tree ([commit] group-commits
    tree pages and version chains together). *)

val sagiv_mvcc_disk_on :
  ?enqueue_on_delete:bool ->
  order:int ->
  Sharded_int.t ->
  int Mvcc_disk.t array * handle
(** Durable MVCC trees over an existing (empty) {!Sharded_int.t}: one
    {!Mvcc_disk} per shard store sharing one epoch clock, composed so
    the handle's snapshot is a true cross-shard cut. File-backed callers
    (CLI serve) create the store themselves, then wrap.
    @raise Invalid_argument when a full node of [order] does not fit
    the stores' pages. *)

val sagiv_mvcc_disk_open :
  ?enqueue_on_delete:bool -> Sharded_int.t -> int Mvcc_disk.t array * handle
(** Reopen durable MVCC trees over a reopened {!Sharded_int.t} (WAL
    replay already ran): every shard's version chains restore exactly as
    persisted and the shared clock restarts above all persisted stamps. *)

val lehman_yao : impl
val lock_couple : impl

val lock_couple_optimistic : impl
(** Bayer–Schkolnick's improved protocol: optimistic writers (shared
    latches down, exclusive leaf, pessimistic retry on splits). *)

val lock_couple_preemptive : impl
(** Top-down preemptive splitting (Guibas–Sedgewick style): full nodes
    split on the way down, max two exclusive latches per writer. *)

val coarse : impl

val all : impl list
(** All implementations, Sagiv (memory then disk) first. *)
