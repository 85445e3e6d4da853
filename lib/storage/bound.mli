(** A key extended with -infinity and +infinity. A node covers the
    half-open interval (low, high]; the leftmost node of a level has
    [low = Neg_inf] and the rightmost has [high = Pos_inf] (paper §2.1). *)

type 'k t = Neg_inf | Key of 'k | Pos_inf

val compare : ('k -> 'k -> int) -> 'k t -> 'k t -> int

val compare_key : ('k -> 'k -> int) -> 'k -> 'k t -> int
(** Position of a plain key relative to a bound. *)

val to_string : ('k -> string) -> 'k t -> string
val is_key : 'k t -> bool

val get_key : 'k t -> 'k
(** @raise Invalid_argument on an infinite bound. *)
