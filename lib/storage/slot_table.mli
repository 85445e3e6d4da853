(** Lock-free id allocator over a table of slots that never move: the
    allocation half of the paper's storage model (§2.2, §5.3), shared by
    {!Store}, {!Paged_store} and {!Record_store}, each with its own slot
    type.

    Slots live in chunks of 4096, installed on demand and never moved, so
    {!get} indexes without synchronisation. {!alloc} pops the most
    recently released id (LIFO), and only when none is free bumps the
    frontier. A released id is reused at once: defer {!release} through
    an {!Epoch} manager while readers may still hold the id. *)

type 'a t

val create : ?on_free_list:(int -> unit) -> name:string -> (unit -> 'a) -> 'a t
(** An empty table whose chunks are filled with fresh slots from the
    function. [on_free_list] is told [1] after each push onto the free
    list and [-1] after each pop (default: nothing); {!restore} does not
    call it. [name] prefixes error messages. *)

val get : 'a t -> int -> 'a
(** The slot of an id. Indivisible with respect to {!alloc}: the id's
    slot exists in every domain as soon as [alloc] returns it.
    @raise Invalid_argument when the id's chunk was never installed. *)

val find : 'a t -> int -> 'a option
(** The slot of an id below the frontier whose chunk is installed;
    [None] otherwise (negative, past the frontier, past capacity).
    Never raises. *)

val alloc : 'a t -> int
(** Hand out an id: pop the free list, else bump the frontier (installing
    the id's chunk). Counts one allocation.
    @raise Failure past 64 M ids. *)

val release : 'a t -> int -> unit
(** Push an id onto the free list and count one release. The caller
    clears the slot first. *)

val frontier : 'a t -> int
(** Every id ever handed out is below it. *)

val allocated : 'a t -> int
(** Ids ever handed out. *)

val freed : 'a t -> int
(** Ids ever released. *)

val live : 'a t -> int
(** [allocated - freed]. *)

val free_ids : 'a t -> int list
(** The free list, next to be popped first. *)

(** {2 Recovery}

    Single-threaded, before any other domain uses the table. *)

val restore : 'a t -> next:int -> allocated:int -> freed:int -> free:int list -> unit
(** Set the frontier (installing every chunk below it), the counters and
    the free list ([free]'s head is popped first), replacing them. *)

val extend : 'a t -> int -> unit
(** Make an id part of the table: if it lies at or past the frontier,
    move the frontier just past it and count every id this adds as
    allocated; install its chunk. A single writer may call it while
    others read. *)
