(** The Lehman–Yao B-link tree (TODS 1981): the algorithm the paper
    improves on, on the same storage substrate. Readers take no locks; an
    inserter that splits keeps the split node's lock while locating and
    locking the parent (up to three simultaneous locks); deletion is
    leaf-only and nothing is ever compressed. *)

open Repro_storage
open Repro_core

module Make (K : Key.S) : sig
  type t

  val create : ?order:int -> unit -> t
  val search : t -> Handle.ctx -> K.t -> Node.ptr option
  val insert : t -> Handle.ctx -> K.t -> Node.ptr -> [ `Ok | `Duplicate ]
  val delete : t -> Handle.ctx -> K.t -> bool
  val height : t -> int
  val cardinal : t -> int
end
