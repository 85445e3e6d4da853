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

val node_frame_bound : key_bytes:int -> order:int -> int
(** Bytes of the largest tree-node frame of order [order] (the paper's
    k) whose keys encode in [key_bytes] each: a full internal node, 2k
    keys, 2k + 1 ptrs and two key bounds. *)

val min_page_size : int
(** 512: the smallest data page a store uses. *)

val page_size_for : key_bytes:int -> order:int -> int
(** The data page for order [order]: the smallest power of two, at
    least {!min_page_size}, that holds {!node_frame_bound}. 1024 for
    8-byte keys at order 16, 4096 at order 64. *)

val vrec_budget : page_size:int -> int
(** Encoded ptr bytes one version-record frame can carry and still fit
    a [page_size] page: the page less the framing and fixed node
    fields of a keyless, boundless node. *)

val varint_bytes : int -> int
(** Encoded length of one ptr in a v5 frame (zigzag LEB128): 1 to 9. *)

exception Corrupt of string

val add_varint : Buffer.t -> int -> unit
(** Append one int as a v5 frame stores a ptr (zigzag LEB128). *)

val get_varint : Bytes.t -> pos:int -> int * int
(** Read the varint at [pos]; returns it and the position after it.
    @raise Corrupt on a truncated or overlong varint. *)

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
