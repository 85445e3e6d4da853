(** Binary page format: the durable encoding of a node ("each node
    corresponds to a page or block of secondary storage", §2.2). Used by
    snapshots and exercised by round-trip tests so the tree code would
    survive rebasing onto a real pager. Version 2 frames each node with
    its body length and an FNV-1a checksum so torn or stale pages are
    detected at decode time (see doc/RECOVERY.md). *)

val magic : int
val version : int

val version_varint : int
(** Version 3: same layout with the ptr array LEB128/zigzag-varint
    encoded. Written only for {!Node.vrec_level} (version-record) pages;
    [decode] accepts both versions, so v2 stores open read-compatibly. *)

val frame_bytes : int
(** Bytes of framing (magic, version, length, checksum) before the body. *)

exception Corrupt of string

val frame_length : Bytes.t -> int option
(** Bytes the frame at the start of [page] spans (framing plus body), read
    from its header alone, without verifying the checksum. [None] when
    [page] does not start with a frame header that fits in it. *)

module Make (K : Key.S) : sig
  val encode : Buffer.t -> K.t Node.t -> unit

  val decode : Bytes.t -> pos:int -> K.t Node.t * int
  (** Returns the node and the position after it.
      @raise Corrupt on bad magic/version/checksum/structure. *)

  val to_bytes : K.t Node.t -> Bytes.t
  val of_bytes : Bytes.t -> K.t Node.t

  val encoded_size : K.t Node.t -> int
  (** On-disk size in bytes (used for space-utilisation reporting). *)
end
