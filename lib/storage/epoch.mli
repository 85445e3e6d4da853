(** Epoch-based reclamation of deleted pages — the paper's §5.3 scheme
    ("a deleted node can be released when all currently running processes
    have started after its deletion time") with a logical clock.
    Pin/unpin are wait-free; retire/reclaim serialise off the hot path.

    Beyond page reclamation, the same clock stamps MVCC versions
    ({!Repro_storage.Record_store}) and anchors snapshot cuts: {!pin}
    returns the pinned epoch so writers can stamp what they write, and
    {!pin_snapshot}/{!tick}/{!min_worker_pinned} implement the snapshot
    boundary protocol (pin a dedicated slot, tick the clock to get the
    cut epoch [e], wait until every worker pin exceeds [e] — then all
    writes stamped [<= e] are complete and all later writes are stamped
    [> e], so reading at [e] is a consistent cut). *)

type t

val create : unit -> t
(** A clock at 0 with 64 worker pin slots (a worker's slot number wraps
    modulo 64) and 64 snapshot pin slots. *)

val current : t -> int
(** The global clock's current value. *)

val tick : t -> int
(** Advance the clock; returns the pre-advance value — the boundary
    epoch of a snapshot cut. *)

val advance_to : t -> int -> unit
(** Raise the clock to at least the given epoch (CAS-max; no-op when
    already past) — recovery restarts the clock above persisted stamps. *)

val pin : t -> slot:int -> int
(** Pin the worker's slot to the current epoch for the duration of one
    logical operation; returns the pinned epoch (the version stamp for
    any write the operation performs). Balanced with {!unpin}; not
    reentrant per slot. The pin is published with a store /
    re-read-validate loop, so once [pin] returns, no {!reclaim} can free
    a page retired at or after the pinned epoch (see the ordering
    argument at the definition). *)

val pin_hook : (unit -> unit) option ref
(** Test-only: fired between reading the global clock and publishing the
    pin, on every validation iteration. Leave [None] in production. *)

val unpin : t -> slot:int -> unit
val with_pin : t -> slot:int -> (unit -> 'a) -> 'a

val pin_snapshot : t -> int * int
(** Claim a free snapshot slot, pin it to the current epoch (same
    publish-then-validate discipline as {!pin}) and return
    [(slot, epoch)]. The slot blocks reclamation ({!min_pinned}) but not
    other snapshots' cuts ({!min_worker_pinned}) until
    {!release_snapshot}. @raise Failure when every slot is taken. *)

val release_snapshot : t -> int -> unit

val pinned_snapshots : t -> int
(** Snapshot slots currently pinned — the observability gauge. *)

val min_worker_pinned : t -> int
(** Smallest epoch any worker is pinned to ([max_int] when none) —
    the snapshot cut's wait condition. *)

val min_pinned : t -> int
(** Smallest epoch anything (worker or snapshot) is pinned to
    ([max_int] when none): the reclamation horizon, and the
    quiescence test used by [Snapshot]/[Validate]. *)

val retire : t -> Node.ptr -> unit
(** Begin a deleted page's grace period. *)

val reclaim : t -> release:(Node.ptr -> unit) -> int
(** Release every retired page whose grace period has passed; returns how
    many. *)

val pending : t -> int
(** Pages in limbo. O(1) from a maintained counter — takes no lock. *)

val total_reclaimed : t -> int
