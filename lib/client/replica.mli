(** WAL-shipping replication follower: pulls durable log pages from a
    primary ({!Client.wal_fetch}), replays them incrementally through
    {!Repro_storage.Wal.Apply} — the same scan-one-record step local
    recovery uses — into a private store, and serves read-only
    search/range at its {e replay horizon} (the LSN of the last applied
    COMMIT). The horizon is always a committed prefix of the primary's
    history: whole promoted batches only, never a torn one. {!promote}
    turns the replica read-write in place after the primary is gone.
    See doc/RECOVERY.md (replication) and doc/SERVER.md (opcodes). *)

exception Stream_error of string
(** The feed is not a valid continuation (LSN gap, regressed
    generation / incarnation, torn record) — re-seed the replica. *)

type t

val create : ?shard:int -> unit -> t
(** A fresh follower for one primary shard (default 0); its store is
    built from the first shipped page (which fixes the page geometry).
    Each pull asks for at most 256 log pages. *)

val poll : ?wait_ms:int -> t -> Client.t -> [ `Applied of int | `Caught_up ]
(** One pull-and-apply round: fetch from the replica's cursor
    (long-polling [wait_ms], default 500, when caught up), feed every
    page, advance the cursor. [`Applied n] = [n] commit batches landed.
    @raise Stream_error on an invalid continuation.
    @raise Client.Remote_error (["stale"]) when the cursor predates the
    primary's retention window. *)

val horizon : t -> int
(** LSN of the last applied COMMIT (-1 before the first): the replica's
    consistent read horizon. *)

val next_lsn : t -> int
(** Where the next pull starts. *)

val batches : t -> int
(** Commit batches applied over the replica's life. *)

val search : t -> Repro_core.Handle.ctx -> int -> int option
val range : t -> Repro_core.Handle.ctx -> lo:int -> hi:int -> (int * int) list
val cardinal : t -> int
val height : t -> int

val mvcc_horizon : t -> int option
(** The snapshot read horizon when the primary runs durable MVCC: the
    epoch clock persisted with the last applied metadata blob. [None]
    against a plain primary. Reads ({!search}/{!range}) resolve shipped
    version chains to the newest version at or below it — the exact
    committed cut the primary persisted; tombstoned keys read as
    absent. *)

val promote : t -> unit
(** Flip read-write: {!handle}'s insert/delete/commit start running
    against the replicated store, continuing from the applied horizon.
    Stop and drain the feed first — the caller owns that ordering. *)

val promoted : t -> bool

val handle : t -> Repro_baseline.Tree_intf.handle
(** A servable handle over the replica: search/range at the horizon;
    insert/delete/commit fail until {!promote}. *)
