(** Wire protocol of the B-link network server: length-prefixed binary
    frames with a versioned header and checksummed payloads, designed
    for {e pipelining} — a client may stream any number of request
    frames before reading responses; the server answers strictly in
    request order, echoing each frame's sequence number.

    Frame layout (all integers big-endian):

    {v
    offset  size  field
    0       2     magic 0x42 0x4C ("BL")
    2       1     version (currently 2)
    3       1     opcode (request) / status (response)
    4       4     sequence number (echoed verbatim in the response)
    8       4     payload length (bytes; bounded by the receiver)
    12      4     Checksum.mx32 of the payload
    16      n     payload
    v}

    Keys and values are 63-bit OCaml ints carried as 64-bit two's
    complement, read and written a word at a time. A frame that fails
    any header check (magic, version, unknown opcode, oversized length)
    or whose payload fails the checksum raises {!Bad_frame}; the server
    answers with a final [Error] frame and closes {e that} connection
    only.

    Version 2 replaced version 1 (FNV-1a-32 checksums, byte-at-a-time
    ints) outright: a version-1 frame is refused as an unsupported
    version, so a primary, its replicas and its clients upgrade
    together. *)

exception Bad_frame of string
(** Unparseable or integrity-failed frame. The connection that sent it
    is poisoned (the stream can no longer be re-synchronised); the
    receiver reports and closes. *)

val header_size : int
(** Bytes before the payload (16). *)

val version : int

val default_max_payload : int
(** Default payload-size bound a receiver enforces before trusting a
    length field (1 MiB — generous for any RANGE reply). *)

type request =
  | Insert of { key : int; value : int }
  | Delete of { key : int }
  | Search of { key : int }
  | Range of { lo : int; hi : int }
  | Commit  (** make every completed operation durable before replying *)
  | Stats  (** server-side counters snapshot *)
  | Subscribe of { shard : int; from_lsn : int; max_pages : int; wait_ms : int }
      (** Replication pull: up to [max_pages] raw WAL log pages of
          [shard] starting at [from_lsn], long-polling up to [wait_ms]
          when nothing is durable there yet. Payload: u32 shard, i64
          from_lsn, u32 max_pages, u32 wait_ms. *)
  | Snapshot of { close : bool }
      (** Open (or close) a pinned MVCC snapshot session on this
          connection: until closed, its SEARCH and RANGE answer at the
          pinned cut — a stable read horizon spanning many requests.
          Re-opening releases the previous pin and takes a fresh one.
          Payload: u32 action (0 = open, 1 = close). Backends without
          an MVCC surface answer [Error]. *)

type server_stats = {
  s_conns_opened : int;
  s_conns_active : int;
  s_frames_in : int;
  s_frames_out : int;
  s_bytes_in : int;
  s_bytes_out : int;
  s_max_pipeline : int;
  s_protocol_errors : int;
  s_acked_commits : int;
  s_lat_p50_us : int;  (** per-request service latency, microseconds *)
  s_lat_p99_us : int;
  s_cardinal : int;  (** tree key count at snapshot time *)
  s_height : int;
}

type response =
  | Inserted
  | Duplicate
  | Deleted
  | Absent  (** delete miss / search miss *)
  | Found of int
  | Pairs of (int * int) list
  | Committed
  | Stats_reply of server_stats
  | Wal_chunk of { shard : int; next_lsn : int; pages : Bytes.t list }
      (** Reply to [Subscribe]: LSN-contiguous raw log pages starting at
          the requested [from_lsn]; the next subscribe starts at
          [next_lsn]. Empty [pages] (with [next_lsn = from_lsn]) means
          caught up to the primary's durable horizon. Payload: u32
          shard, i64 next_lsn, u32 page_size, u32 count, then
          [count × page_size] raw bytes. A subscriber that has fallen
          out of the primary's retention window gets [Error "stale"]
          instead and must re-seed. *)
  | Snap_reply of { epoch : int }
      (** Reply to [Snapshot]: the pinned cut's boundary epoch on open,
          [-1] on close. Payload: i64 epoch. *)
  | Error of string
      (** terminal: the server closes the connection after sending it *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
val response_to_string : response -> string

(** Frames rendered in place: each frame is written and checksummed
    at the end of one reused byte buffer, which the owner flushes as it
    is — no per-frame allocation or copy. A writer belongs to one
    domain (the server keeps one per connection, a client one per
    connection). *)
module Writer : sig
  type t

  val create : unit -> t
  val request : t -> seq:int -> request -> unit
  (** Append one request frame. [seq] is truncated to 32 bits. *)

  val response : t -> seq:int -> response -> unit

  val bytes : t -> Bytes.t
  (** The buffer; its first {!length} bytes are the frames written since
      the last {!reset}. Valid until the next append. *)

  val length : t -> int
  val reset : t -> unit
end

val encode_request : Buffer.t -> seq:int -> request -> unit
(** Append one request frame: {!Writer.request} on a domain-private
    scratch writer, then one blit into the buffer. [seq] is truncated to
    32 bits. *)

val encode_response : Buffer.t -> seq:int -> response -> unit

type 'a decoded =
  | Need_more  (** no complete frame in the buffer yet *)
  | Frame of { seq : int; body : 'a; consumed : int }

val decode_request :
  ?max_payload:int -> Bytes.t -> pos:int -> len:int -> request decoded
(** Decode the first request frame of [len] bytes at [pos]. [consumed]
    is the total frame size to advance past.
    @raise Bad_frame on a header or checksum violation. *)

val decode_response :
  ?max_payload:int -> Bytes.t -> pos:int -> len:int -> response decoded
(** Same for a response frame (client side). *)
