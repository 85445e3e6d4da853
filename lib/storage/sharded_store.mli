(** Keyspace partition layer: N fully independent {!Paged_store}
    instances (own node cache, free list, commit mutex, group-commit
    leader, checkpoint, recovery) managed as one
    unit. Shard identity [(i, N)] is recorded in each shard's headers
    and validated on reopen; reopen recovers all shards in parallel.
    Key → shard routing lives in {!Shard_router} (used by the tree
    layer), keeping this module generic over the key type. *)

module Make (K : Key.S) (P : module type of Paged_store.Make (K)) : sig
  type t

  val count : t -> int
  val store : t -> int -> P.t
  val stores : t -> P.t array

  val shard_path : string -> int -> string
  (** [shard_path path i] is shard [i]'s on-disk path ([path.s<i>]);
      the same scheme applies to the WAL path. *)

  val create_memory :
    ?page_size:int ->
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    shards:int ->
    unit ->
    t
  (** [shards] memory-backed stores; every per-store knob (cache pages,
      stripes, group-commit tuning) applies {e per shard}. *)

  val create_file :
    ?page_size:int ->
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    ?wal_path:string ->
    shards:int ->
    string ->
    t
  (** File-backed shards at [shard_path path i] (log devices at
      [shard_path wal_path i], [wal_path] defaulting to [path ^ ".wal"]),
      each created with shard identity [(i, shards)]. *)

  val open_file :
    ?cache_pages:int ->
    ?stripes:int ->
    ?commit_interval:float ->
    ?commit_batch:int ->
    ?wal_path:string ->
    shards:int ->
    string ->
    t
  (** Reopen every shard {e in parallel} (one domain per shard; WAL
      replay per shard, logs found as in {!create_file}), asserting shard [i] recorded identity
      [(i, shards)]. On any failure the already-opened shards are
      closed before the error propagates.
      @raise Paged_store.Shard_mismatch on a shard-count/index mismatch
      @raise Paged_store.Corrupt when a shard's header fails to parse *)

  val commit_shard : t -> int -> unit
  (** Group-commit one shard (safe from any domain; independent shards'
      commits run fully in parallel — separate mutexes, leaders, log
      fsyncs). *)

  val commit_all : t -> unit

  val sync_all : t -> unit
  (** Quiescent checkpoint of every shard. *)

  val close : t -> unit
  (** Idempotent, exception-safe shutdown: each shard's final checkpoint
      and file close ([P.close]); all shards are visited
      even when one fails, then the first failure re-raises — one
      shard's bad device never leaves another unsynced. *)

  val per_shard_io : t -> Stats.io array
  (** One {!Stats.io} snapshot per shard, in shard order — the skew
      observability surface (faults, commits, fsyncs per shard). *)

  val io_stats : t -> Stats.io
  (** All shards merged (counters sum, high-water marks max). *)

  val generations : t -> int array
end
