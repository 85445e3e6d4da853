(** Plain-text tables and notes for the bench harness, in a form that
    pastes into EXPERIMENTS.md. *)

val table : ?out:out_channel -> header:string list -> string list list -> unit
val fmt_f : ?digits:int -> float -> string

val fmt_si : float -> string
(** 1234567. -> "1.23M" *)

val fmt_bytes : int -> string
val heading : string -> unit
val note : string -> unit
