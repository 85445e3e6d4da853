(** SplitMix64 pseudo-random number generator (Steele, Lea & Flood,
    OOPSLA'14). Fast, splittable, not thread-safe: give each worker domain
    its own generator via {!split}. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] returns a statistically independent generator; [t] advances. *)

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] without modulo bias.
    Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)
