(** Ordered key types. Trees and codecs are functors over {!S}. *)

module type S = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string

  val encode : Buffer.t -> t -> unit
  (** Append the binary page-format encoding of a key: at least one
      byte, which {!Page_codec} relies on to bound a frame's key count
      by its body length. *)

  val decode : Bytes.t -> pos:int -> t * int
  (** [decode bytes ~pos] returns the key and the position after it. *)
end

module Int : S with type t = int
(** Fixed 8-byte little-endian encoding. *)

module Pair (A : S) (B : S) : S with type t = A.t * B.t
(** Lexicographic pairs — composite indexes like (user_id, timestamp). *)

module Str : S with type t = string
(** Length-prefixed encoding. *)
