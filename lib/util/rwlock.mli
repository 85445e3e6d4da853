(** Writer-preferring reader–writer lock (OCaml 5.1's stdlib has none).
    Readers share; a waiting writer blocks new readers. *)

type t

val create : unit -> t
val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit

val try_write_lock : t -> bool
(** Non-blocking; [true] on acquisition. *)
