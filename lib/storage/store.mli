(** Concurrent page store: the paper's secondary-storage model (§2.2).

    Each page slot holds an immutable node snapshot behind an atomic, so
    {!get} and {!put} are indivisible and readers never block. Each slot
    carries the page latch for {!lock}/{!unlock}; latches serialise
    writers only — they never block readers, exactly as in the model.
    Pages live in chunks that never move; freed pages are recycled. *)

type 'k t

val create : unit -> 'k t

val alloc : 'k t -> 'k Node.t -> Node.ptr
(** Allocate a page initialised to the node; immediately readable from all
    domains. *)

val reserve : 'k t -> Node.ptr
(** Reserve a page id with no contents; the caller must {!put} before
    making the id reachable (a split writes the new right sibling before
    linking it, Fig 3). *)

exception Freed_page of int
(** Raised by {!get} on a reclaimed page — the same exception as
    {!Page_store.Freed_page} (a rebinding, so either name catches it).
    Under correct epoch protection this cannot happen within a pinned
    operation; cross-operation references (queue stacks) catch it and
    restart. *)

val get : 'k t -> Node.ptr -> 'k Node.t
(** Indivisible read. *)

val put : 'k t -> Node.ptr -> 'k Node.t -> unit
(** Indivisible rewrite. *)

val lock : 'k t -> Node.ptr -> unit
val unlock : 'k t -> Node.ptr -> unit
val try_lock : 'k t -> Node.ptr -> bool

val release : 'k t -> Node.ptr -> unit
(** Return a page to the allocator; call only once its deletion epoch has
    passed (see {!Epoch}). *)

val live_count : 'k t -> int
val total_freed : 'k t -> int

val iter : 'k t -> (Node.ptr -> 'k Node.t -> unit) -> unit
(** Over all live pages; only meaningful when quiescent. *)

val set_meta : 'k t -> Bytes.t -> unit
(** Opaque client metadata blob (see {!Page_store.S}); kept in memory. *)

val get_meta : 'k t -> Bytes.t option

val sync : 'k t -> unit
(** Runs the hook {!Page_store.S.on_checkpoint} registered (through
    {!For_key}) and nothing else: the store is purely in-memory. A later
    registration replaces the hook. *)

val commit : 'k t -> unit
(** No-op: nothing to make durable (see {!Page_store.S.commit}). *)

module For_key (K : Key.S) : Page_store.S with type key = K.t and type t = K.t t
(** The {!Page_store.S} view of the store at one key type — what
    [Repro_core]'s [Make (K)] convenience functors instantiate. The type
    equality [t = K.t t] is transparent. *)
