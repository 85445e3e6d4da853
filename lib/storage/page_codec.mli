(** Binary page format: the durable encoding of a node ("each node
    corresponds to a page or block of secondary storage", §2.2). Used by
    snapshots and the paged store, and exercised by round-trip tests so
    the tree code would survive rebasing onto a real pager. Each frame
    carries its body length and a checksum of the body, so torn or
    stale pages are detected at decode time (see doc/RECOVERY.md). *)

val magic : int

val version : int
(** Version 4: tree-node frames, ptrs as fixed i64s, body checksummed
    with {!Repro_util.Checksum.mx32}. *)

val version_varint : int
(** Version 5: same layout with the ptr array LEB128/zigzag-varint
    encoded. Written only for {!Node.vrec_level} (version-record)
    pages. *)

val legacy_version : int
(** Version 2: the layout of {!version} with an FNV-1a-32 body checksum.
    Read only: stores written before v4 still open. *)

val legacy_version_varint : int
(** Version 3: the layout of {!version_varint} with an FNV-1a-32 body
    checksum. Read only. *)

val frame_bytes : int
(** Bytes of framing (magic, version, length, checksum) before the body. *)

exception Corrupt of string

val frame_length : Bytes.t -> int option
(** Bytes the frame at the start of [page] spans (framing plus body), read
    from its header alone, without verifying the checksum. [None] when
    [page] does not start with a frame header (magic and one of versions
    2–5) that fits in it. *)

module Make (K : Key.S) : sig
  val encode : Buffer.t -> K.t Node.t -> unit
  (** Append the node's frame (v4, or v5 for a version-record page). *)

  val decode : Bytes.t -> pos:int -> K.t Node.t * int
  (** Returns the node and the position after it. Reads versions 2–5,
      checking each with its own checksum.
      @raise Corrupt on bad magic/version/checksum/structure, including
      a key or ptr count larger than the body bytes left. *)

  val to_bytes : K.t Node.t -> Bytes.t
  (** The node's frame, rendered into one buffer and copied out once. *)

  val of_bytes : Bytes.t -> K.t Node.t

  val encoded_size : K.t Node.t -> int
  (** On-disk size in bytes (used for space-utilisation reporting). *)
end
