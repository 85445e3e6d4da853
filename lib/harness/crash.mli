(** Simulated-crash harness: one runner, {!run}, drives a workload over
    the durable {!Repro_storage.Paged_store} stack on crash-shadow
    {!Repro_storage.Paged_file} devices in any durable {!scenario} (one
    or several shards, plain tree or MVCC, with or without a follower;
    every store logs), kills the simulated process at an armed
    {!Repro_storage.Failpoint} site, reopens the durable images and
    holds every shard to one commit-point oracle: the last acknowledged
    commit, or the in-flight one when the crash landed past its fsync.
    Targeted runs stage single faults by hand. Used by [test_crash] and
    [blink_cli crash-test]; see doc/RECOVERY.md. *)

type scenario = {
  cache_pages : int;  (** decoded-node cache size (small → eviction traffic) *)
  shards : int;
      (** independent store pairs, keys routed by
          {!Repro_storage.Shard_router} *)
  mvcc : bool;  (** durable MVCC version chains over the tree *)
  follower : bool;
      (** a WAL-shipping follower of shard 0, promoted after the crash *)
  page_size : int;
      (** data page bytes: 512 (order 4's page) in most rows, 4096 in the
          rows that cover stores written before pages were sized to the
          node; the log page follows from it *)
}
(** A durable configuration: the axes the server's [Serve_config] names,
    plus a replication follower and the page size. *)

type outcome = {
  site : string;
  policy : string;
  scenario : scenario;
  crashed : bool;  (** false when the armed policy never fired *)
  ops : int;
  acked_syncs : int;
  recovered_keys : int;
  recovered_gen : int;
}

val pp_outcome : outcome -> string

val run :
  ?ops:int ->
  ?seed:int ->
  ?dist:Repro_util.Distribution.kind ->
  site:string ->
  policy:Repro_storage.Failpoint.policy ->
  scenario ->
  outcome
(** One crash run against the commit-point oracle. Every shard gets its
    own shadow data and log devices, is preloaded and checkpointed, and
    then the failpoint arms and a seeded mix runs: insert/delete/search
    on the plain tree, or upsert/delete/get with op-salted values, a
    pinned snapshot and vacuum churn under [mvcc]. Commit points follow
    from the scenario: a group commit every 5 ops, every 100th op a
    checkpoint instead; with a [follower], a commit every 3 ops, no
    checkpoint, and the follower drained after each. With several
    [shards] keys route by {!Repro_storage.Shard_router} and a commit
    point is a multi-shard batch: touched shards commit in shard order,
    each acknowledged separately, so a crash lands mid-batch.

    After the crash every shard recovers from its own crash images
    (asserting its recorded [(i, N)] identity) and must hold exactly its
    last acknowledged commit, or the in-flight one when the crash came
    after its fsync; every recovered key must route back to its shard.
    [mvcc] adds three checks: two recoveries of the same images yield
    identical version chains, versions pruned before an acked commit
    never resurrect, and a fresh pin reads the recovered state. A
    [follower] of shard 0 catches up from that shard's log device's
    crash image, is promoted, and must agree exactly with the recovered
    shard;
    following an MVCC primary, its reads at the replicated clock must
    also be a committed cut, and its store opened through
    [Mvcc.open_durable] must recover the primary's version chains.

    Defaults replay the historical seeded histories: [ops] 400 (300 with
    a follower); [seed] 1042, 4042 MVCC, 2042 sharded or followed;
    [dist] uniform over 200 keys (400 when sharded).
    @raise Invalid_argument when [shards < 1] and for MVCC over several
    shards.
    @raise Failure on any violated recovery invariant. *)

val run_wal_commit_race : unit -> unit
(** Multi-domain group-commit durability stress, 20 times over: 4 writer
    domains insert 4 disjoint keys each into a fresh store and commit
    after every insert, sharing groups through the leader/follower
    handoff; then the crash image taken after the last acknowledgement —
    with no final sync — is recovered and must hold every acknowledged
    key. One commit round per store, so every install is exposed rather
    than papered over by a later batch re-logging its page. It does not
    catch the install/seal ordering race (a page noted dirty before its
    new image is published can be sealed, logged stale, and dropped from
    the batch its installer's commit targets): that window is a few
    instructions wide and no run of this test has tripped it.
    @raise Failure on any lost or torn acknowledged key. *)

val battery :
  ?quick:bool -> ?shards:int -> ?log:(string -> unit) -> unit -> outcome list
(** One table of {!run} sweeps — each a scenario at every cache size ×
    site × crash ordinal ([quick] keeps cache 8 and ordinal 1) — plus
    targeted runs:
    - torn header: tear the staged header slot mid-write; recovery must
      fall back to the committed generation with full contents. At the
      512-byte page the tear hits slot 1; at 4096 bytes it hits slot 0,
      so the reopen finds the page size from slot 1 alone;
    - torn chain: tear a free-chain entry (over a page free in the
      committed generation); recovery keeps the tree and either restores
      or safely leaks the free list;
    - short writes: short-write every other page write; the device retry
      loops must make it invisible;
    - WAL torn append: tear a log record mid-append; replay must stop at
      the torn record and recovery must land exactly on the last
      acknowledged commit;
    - WAL commit crash: crash at the group-commit fsync; recovery must
      land deterministically on the previous commit;
    - WAL replay crash: crash mid-replay during recovery, then recover
      again; replay is read-only, so both land on the same state;
    - point-in-time recovery: replay the retained log from LSN 0 up to a
      mid-history COMMIT boundary into a fresh store; the rebuilt tree
      must validate and match the model at that acknowledgement;
    - store error paths: every store-level site raises once, retries
      succeed, and the final image proves no update was dropped (the
      eviction stage checks its own victim after the following sync);
    - WAL error paths: injected errors on log append and commit fsync
      surface, the leader's rollback keeps [commit] retryable, and the
      retried commits lose nothing;
    - {!run_wal_commit_race}.
    Its sharded rows use [shards] (default 4) partitions; [shards <= 1]
    skips them. After a battery, {!Repro_storage.Failpoint.unexercised}
    must be empty.
    @raise Failure on the first violated invariant. *)
