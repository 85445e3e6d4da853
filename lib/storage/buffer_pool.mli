(** Buffer pool over a {!Paged_file}: pin/unpin, dirty tracking, clock
    eviction. Single-owner: the pool of the sequential [Disk_btree]
    baseline. The concurrent trees use {!Store}, or {!Paged_store}, whose
    decoded-node cache reads and writes the {!Paged_file} directly. *)

type t

val create : frames:int -> Paged_file.t -> t

val pin : t -> int -> Bytes.t
(** Bring the disk page into a frame (evicting if needed) and pin it; the
    returned buffer is the frame itself — mutate it and {!unpin} with
    [~dirty:true] to schedule write-back.
    @raise Failure when every frame is pinned. *)

val unpin : t -> int -> dirty:bool -> unit

val alloc : t -> int
(** Fresh zero-filled disk page, returned pinned. *)

val flush_all : t -> unit
(** Write back every dirty frame and sync the file. *)

type stats = { hits : int; misses : int; evictions : int; writebacks : int }

val stats : t -> stats
val hit_ratio : t -> float
