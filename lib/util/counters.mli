(** Striped atomic counters: per-domain stripes with padding against false
    sharing. [read] is exact once quiescent, approximate under concurrent
    increments. *)

type t

val stride : int
(** Array stride between stripes (exposed for reuse by other per-slot
    structures, e.g. {!Repro_storage.Epoch}). *)

val create : ?domains:int -> unit -> t
val incr : t -> slot:int -> unit
val read : t -> int
val clear : t -> unit
