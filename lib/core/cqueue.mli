(** Compression work queue (§5.4): deletions enqueue under-half-full
    nodes; compactors pop them, higher tree levels first (footnote 17).
    Mutex-protected ("accessing the common queue requires locking it with
    an exclusive lock"); entries are deduplicated by node pointer. *)

open Repro_storage

type 'k entry = {
  ptr : Node.ptr;
  level : int;
  mutable high : 'k Bound.t;
  mutable stack : Node.ptr list;  (** path from the root; top = parent level *)
  mutable stamp : int;
  mutable live : bool;
}

type 'k t

val create : unit -> 'k t

val push :
  'k t ->
  update:bool ->
  ptr:Node.ptr ->
  level:int ->
  high:'k Bound.t ->
  stack:Node.ptr list ->
  stamp:int ->
  unit
(** If the node is already queued: [update = true] (caller holds the
    node's lock, so its info is at least as recent) refreshes the entry;
    [update = false] (§5.4's re-queue-without-lock case) keeps the
    existing, more recent entry.
    @raise Invalid_argument when [level] is outside [0, 64) — checked
    before any queue state (or its mutex) is touched. *)

val pop : 'k t -> 'k entry option
(** Highest level first; FIFO within a level. *)

val remove : 'k t -> Node.ptr -> unit
(** Drop a node deleted by a merge; no-op if absent. *)

val length : 'k t -> int
