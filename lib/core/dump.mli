(** Debug pretty-printing of a quiescent tree, level by level. *)

open Repro_storage

module Make (K : Key.S) : sig
  val to_string : (K.t, K.t Store.t) Handle.t -> string
  val print : (K.t, K.t Store.t) Handle.t -> unit
end
