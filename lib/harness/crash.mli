(** Simulated-crash harness: runs Sagiv-tree (and raw store) workloads
    over the durable {!Repro_storage.Paged_store} stack on a crash-shadow
    {!Repro_storage.Paged_file}, kills the simulated process at an armed
    {!Repro_storage.Failpoint} site, reopens the durable image and holds
    the recovery to an exact oracle (last acknowledged sync, or the
    in-flight one when the crash landed past its commit fsync). The WAL
    runs do the same over a data device {e plus} a log device, with the
    oracle tightened to the group-commit point. Used by [test_crash] and
    [blink_cli crash-test]; see doc/RECOVERY.md. *)

type config = {
  cache_pages : int;  (** decoded-node cache size (small → eviction traffic) *)
}

type outcome = {
  site : string;
  policy : string;
  config : config;
  crashed : bool;  (** false when the armed policy never fired *)
  ops : int;
  acked_syncs : int;
  recovered_keys : int;
  recovered_gen : int;
}

val pp_outcome : outcome -> string

val run_tree :
  ?ops:int ->
  ?seed:int ->
  ?dist:Repro_util.Distribution.kind ->
  site:string ->
  policy:Repro_storage.Failpoint.policy ->
  config ->
  outcome
(** One tree-level crash run against the oracle. [dist] (default
    uniform, bit-identical to the historical seeded stream) selects the
    key distribution; Zipfian aims the oracle at hot-key traffic.
    @raise Failure on any violated recovery invariant. *)

val run_torn_header : config -> outcome
(** Tear the staged header slot mid-write; recovery must fall back to the
    committed generation with full contents. *)

val run_torn_chain : unit -> outcome
(** Tear a free-chain entry (over a page free in the committed
    generation); recovery keeps the tree and either restores or safely
    leaks the free list. *)

val run_short_writes : config -> outcome
(** Short-write every other page write; the device retry loops must make
    it invisible. *)

val run_error_paths : unit -> unit
(** Injected-error battery at the store level: every site raises once,
    retries succeed, and the final image proves no update was dropped.
    The eviction stage checks its own victim: every page put up to the
    failed eviction must hold its new leaf in a crash image taken after
    the following [sync]. *)

val run_wal_tree :
  ?ops:int ->
  ?seed:int ->
  ?dist:Repro_util.Distribution.kind ->
  site:string ->
  policy:Repro_storage.Failpoint.policy ->
  config ->
  outcome
(** {!run_tree} in WAL durability mode: shadow data + shadow log device,
    group commit every 5 ops, checkpoint every 100, recovery through log
    replay held to the commit-point oracle. [dist] as in {!run_tree};
    the battery includes Zipfian runs of this. *)

val run_sharded_wal :
  ?ops:int ->
  ?seed:int ->
  ?shards:int ->
  site:string ->
  policy:Repro_storage.Failpoint.policy ->
  config ->
  outcome
(** {!run_wal_tree} through the partition layer: [shards] (default 4)
    independent store+WAL pairs on their own shadow devices, keys routed
    by {!Repro_storage.Shard_router}, multi-shard batch commits (touched
    shards commit in shard order, each acknowledged separately), crashes
    landing mid-batch. Every shard recovers from its own crash images —
    asserting its recorded [(i, N)] identity — against its own
    commit-point oracle, and every recovered key must route back to the
    shard that held it. *)

val run_wal_torn_append : unit -> outcome
(** Tear a log record mid-append (cache sized so the commit writes only
    log pages); replay must stop at the torn record and recovery must
    land exactly on the last acknowledged commit. *)

val run_wal_commit_crash : unit -> outcome
(** Crash at the group-commit fsync (the batch is still volatile);
    recovery must land deterministically on the previous commit. *)

val run_wal_replay_crash : unit -> outcome
(** Crash mid-replay during recovery, then recover again: replay is
    read-only, so the second attempt must land on the same state. *)

val run_wal_commit_race :
  ?domains:int -> ?runs:int -> ?batch:int -> unit -> unit
(** Multi-domain group-commit durability stress, [runs] times: [domains]
    writer domains insert disjoint keys into a fresh store and
    group-commit concurrently ([commit_batch] = domain count), then the
    crash image taken after the last acknowledgement — with no final
    sync — is recovered and must hold every acknowledged key. One commit
    round per store, so every install is exposed rather than papered
    over by a later batch re-logging its page. Regression cover for the
    install/seal ordering race (a page noted dirty before its new image
    is published can be sealed, logged stale, and dropped from the batch
    its installer's commit targets).
    @raise Failure on any lost or torn acknowledged key. *)

val run_replication :
  ?ops:int ->
  ?seed:int ->
  site:string ->
  policy:Repro_storage.Failpoint.policy ->
  config ->
  outcome
(** WAL-shipping replication oracle: a follower (the {!Wal.Apply} step
    over its own in-memory store) drains the primary's durable log after
    every acknowledged commit; the armed failpoint kills the primary;
    the follower catches up from the log device's crash image and is
    promoted. The promoted follower must agree exactly with a cold
    recovery of the primary from the same images, and both must land on
    the commit-point oracle (every acked commit survives, plus at most
    the in-flight one).
    @raise Failure on divergence or a lost acknowledged commit. *)

val run_mvcc_wal :
  ?ops:int ->
  ?seed:int ->
  site:string ->
  policy:Repro_storage.Failpoint.policy ->
  config ->
  outcome
(** {!run_wal_tree} over durable MVCC: version chains persist through
    the same WAL as the tree, a snapshot stays pinned across several
    group commits (checked against its cut before release), vacuum
    prunes mid-run, and the armed crash lands anywhere in the log path.
    Recovery through {!Repro_core.Mvcc.Make_on_store.open_durable} is
    held to three oracles: newest acked versions land exactly on the
    last acked commit (or the in-flight one past its fsync); recovering
    the same crash images twice yields identical version chains; and
    versions pruned before an acked commit never resurrect, even when
    WAL replay re-installs a pre-prune page image past the checkpoint.
    @raise Failure on any violated invariant. *)

val run_wal_pitr : ?ops:int -> ?seed:int -> unit -> outcome
(** Point-in-time recovery: replay the retained log (sealed segments +
    live pass) from LSN 0 up to a mid-history COMMIT boundary into a
    fresh store; the rebuilt tree must validate and match the model
    snapshot taken at that acknowledgement exactly. *)

val run_wal_error_paths : unit -> unit
(** Injected errors on log append and commit fsync: the error surfaces,
    the leader's rollback keeps [commit] retryable, and the retried
    commits lose nothing. *)

val battery :
  ?quick:bool -> ?shards:int -> ?log:(string -> unit) -> unit -> outcome list
(** Crash runs for every site × cache size plus the targeted runs above,
    including the {!run_sharded_wal} sweep over [shards] (default 4)
    partitions ([shards <= 1] skips it). After a battery,
    {!Repro_storage.Failpoint.unexercised} must be empty.
    @raise Failure on the first violated invariant. *)
