(** Truncated exponential backoff for spin–retry loops ("wait for a while
    and then read again", paper §3.3 / §5.2). *)

type t

val create : unit -> t
(** A fresh backoff: one spin, doubling up to 2{^14}. *)

val reset : t -> unit

val once : t -> unit
(** Spin; each successive call spins twice as long, up to the cap. *)

val stage : t -> int
(** Number of doublings so far — for bounded-wait policies. *)
