(** Wire protocol: length-prefixed, versioned, checksummed frames.
    See the interface for the layout. A frame is rendered and
    checksummed in place at the end of a {!Writer}'s bytes, which the
    caller flushes to the socket as they are; decoding reads straight
    out of the per-connection byte buffer without copying the payload.
    Ints move a word at a time ([Bytes.get/set_int64_be]). *)

exception Bad_frame of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_frame s)) fmt
let header_size = 16
let magic = 0x424C (* "BL" *)
let version = 2
let default_max_payload = 1 lsl 20

(* Request opcodes / response status tags share the header's byte 3. *)
let op_insert = 1
let op_delete = 2
let op_search = 3
let op_range = 4
let op_commit = 5
let op_stats = 6
let op_subscribe = 7
let op_snapshot = 8
let st_inserted = 64
let st_duplicate = 65
let st_deleted = 66
let st_absent = 67
let st_found = 68
let st_pairs = 69
let st_committed = 70
let st_stats = 71
let st_wal_chunk = 72
let st_snap = 73
let st_error = 255

type request =
  | Insert of { key : int; value : int }
  | Delete of { key : int }
  | Search of { key : int }
  | Range of { lo : int; hi : int }
  | Commit
  | Stats
  | Subscribe of { shard : int; from_lsn : int; max_pages : int; wait_ms : int }
  | Snapshot of { close : bool }
      (** Open (or close) a pinned MVCC snapshot session: until closed,
          this connection's SEARCH and RANGE answer at the pinned cut.
          Requires an MVCC backend; re-opening replaces the pin. *)

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
  s_lat_p50_us : int;
  s_lat_p99_us : int;
  s_cardinal : int;
  s_height : int;
}

type response =
  | Inserted
  | Duplicate
  | Deleted
  | Absent
  | Found of int
  | Pairs of (int * int) list
  | Committed
  | Stats_reply of server_stats
  | Wal_chunk of { shard : int; next_lsn : int; pages : Bytes.t list }
      (** Raw log pages for the subscriber to feed through [Wal.Apply];
          [next_lsn] is where the next subscribe should start. Empty
          [pages] with [next_lsn = from_lsn] means caught up. *)
  | Snap_reply of { epoch : int }
      (** The session snapshot's boundary epoch; [-1] acknowledges a
          close. *)
  | Error of string

let pp_request fmt = function
  | Insert { key; value } -> Format.fprintf fmt "INSERT %d=%d" key value
  | Delete { key } -> Format.fprintf fmt "DELETE %d" key
  | Search { key } -> Format.fprintf fmt "SEARCH %d" key
  | Range { lo; hi } -> Format.fprintf fmt "RANGE %d..%d" lo hi
  | Commit -> Format.fprintf fmt "COMMIT"
  | Stats -> Format.fprintf fmt "STATS"
  | Subscribe { shard; from_lsn; max_pages; wait_ms } ->
      Format.fprintf fmt "SUBSCRIBE shard=%d lsn=%d max=%d wait=%dms" shard
        from_lsn max_pages wait_ms
  | Snapshot { close } ->
      Format.fprintf fmt "SNAPSHOT %s" (if close then "close" else "open")

let pp_response fmt = function
  | Inserted -> Format.fprintf fmt "inserted"
  | Duplicate -> Format.fprintf fmt "duplicate"
  | Deleted -> Format.fprintf fmt "deleted"
  | Absent -> Format.fprintf fmt "absent"
  | Found v -> Format.fprintf fmt "found %d" v
  | Pairs ps ->
      Format.fprintf fmt "%d pairs:" (List.length ps);
      List.iter (fun (k, v) -> Format.fprintf fmt " %d=%d" k v) ps
  | Committed -> Format.fprintf fmt "committed"
  | Stats_reply s ->
      Format.fprintf fmt
        "stats conns=%d/%d frames=%d/%d bytes=%d/%d max_pipeline=%d \
         proto_errors=%d acked_commits=%d lat_p50=%dus lat_p99=%dus \
         cardinal=%d height=%d"
        s.s_conns_active s.s_conns_opened s.s_frames_in s.s_frames_out
        s.s_bytes_in s.s_bytes_out s.s_max_pipeline s.s_protocol_errors
        s.s_acked_commits s.s_lat_p50_us s.s_lat_p99_us s.s_cardinal
        s.s_height
  | Wal_chunk { shard; next_lsn; pages } ->
      Format.fprintf fmt "wal-chunk shard=%d pages=%d next_lsn=%d" shard
        (List.length pages) next_lsn
  | Snap_reply { epoch } ->
      if epoch < 0 then Format.fprintf fmt "snapshot closed"
      else Format.fprintf fmt "snapshot epoch=%d" epoch
  | Error msg -> Format.fprintf fmt "error: %s" msg

let response_to_string r = Format.asprintf "%a" pp_response r

(* -- word-at-a-time fields -- *)

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let get_i64 b off = Int64.to_int (Bytes.get_int64_be b off)
let checksum = Repro_util.Checksum.mx32

(* -- encoding -- *)

let stats_fields s =
  [
    s.s_conns_opened; s.s_conns_active; s.s_frames_in; s.s_frames_out;
    s.s_bytes_in; s.s_bytes_out; s.s_max_pipeline; s.s_protocol_errors;
    s.s_acked_commits; s.s_lat_p50_us; s.s_lat_p99_us; s.s_cardinal;
    s.s_height;
  ]

let stats_of_fields = function
  | [
      s_conns_opened; s_conns_active; s_frames_in; s_frames_out; s_bytes_in;
      s_bytes_out; s_max_pipeline; s_protocol_errors; s_acked_commits;
      s_lat_p50_us; s_lat_p99_us; s_cardinal; s_height;
    ] ->
      {
        s_conns_opened; s_conns_active; s_frames_in; s_frames_out; s_bytes_in;
        s_bytes_out; s_max_pipeline; s_protocol_errors; s_acked_commits;
        s_lat_p50_us; s_lat_p99_us; s_cardinal; s_height;
      }
  | _ -> assert false

let n_stats_fields = 13

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }
  let bytes w = w.buf
  let length w = w.len
  let reset w = w.len <- 0

  (* Room for [n] more bytes at the end. *)
  let reserve w n =
    if w.len + n > Bytes.length w.buf then begin
      let b = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 b 0 w.len;
      w.buf <- b
    end

  let add_u32 w v =
    reserve w 4;
    set_u32 w.buf w.len v;
    w.len <- w.len + 4

  let add_i64 w v =
    reserve w 8;
    Bytes.set_int64_be w.buf w.len (Int64.of_int v);
    w.len <- w.len + 8

  let add_bytes w b =
    reserve w (Bytes.length b);
    Bytes.blit b 0 w.buf w.len (Bytes.length b);
    w.len <- w.len + Bytes.length b

  (* Skip the header of a frame starting at the end; returns its offset. *)
  let start w =
    reserve w header_size;
    w.len <- w.len + header_size;
    w.len - header_size

  (* Fill in the header of the frame at [at], whose payload runs to the
     end, checksumming the payload where it lies. *)
  let finish w at ~code ~seq =
    let b = w.buf and plen = w.len - at - header_size in
    Bytes.set_uint16_be b at magic;
    Bytes.set_uint8 b (at + 2) version;
    Bytes.set_uint8 b (at + 3) code;
    set_u32 b (at + 4) seq;
    set_u32 b (at + 8) plen;
    set_u32 b (at + 12) (checksum b ~pos:(at + header_size) ~len:plen)

  let request w ~seq (r : request) =
    let at = start w in
    let code =
      match r with
      | Insert { key; value } ->
          add_i64 w key;
          add_i64 w value;
          op_insert
      | Delete { key } ->
          add_i64 w key;
          op_delete
      | Search { key } ->
          add_i64 w key;
          op_search
      | Range { lo; hi } ->
          add_i64 w lo;
          add_i64 w hi;
          op_range
      | Commit -> op_commit
      | Stats -> op_stats
      | Subscribe { shard; from_lsn; max_pages; wait_ms } ->
          add_u32 w shard;
          add_i64 w from_lsn;
          add_u32 w max_pages;
          add_u32 w wait_ms;
          op_subscribe
      | Snapshot { close } ->
          add_u32 w (if close then 1 else 0);
          op_snapshot
    in
    finish w at ~code ~seq

  let response w ~seq (r : response) =
    let at = start w in
    let code =
      match r with
      | Inserted -> st_inserted
      | Duplicate -> st_duplicate
      | Deleted -> st_deleted
      | Absent -> st_absent
      | Found v ->
          add_i64 w v;
          st_found
      | Pairs ps ->
          add_u32 w (List.length ps);
          List.iter
            (fun (k, v) ->
              add_i64 w k;
              add_i64 w v)
            ps;
          st_pairs
      | Committed -> st_committed
      | Stats_reply s ->
          List.iter (add_i64 w) (stats_fields s);
          st_stats
      | Wal_chunk { shard; next_lsn; pages } ->
          (* All pages in one chunk share a size (the shard's log page
             size) — ship it once so the decoder can slice without it. *)
          add_u32 w shard;
          add_i64 w next_lsn;
          add_u32 w (match pages with [] -> 0 | pg :: _ -> Bytes.length pg);
          add_u32 w (List.length pages);
          List.iter (add_bytes w) pages;
          st_wal_chunk
      | Snap_reply { epoch } ->
          add_i64 w epoch;
          st_snap
      | Error msg ->
          add_bytes w (Bytes.unsafe_of_string msg);
          st_error
    in
    finish w at ~code ~seq
end

(* The [Buffer.t] entry points render through this domain's writer, then
   move the frame out in one blit. *)
let scratch = Domain.DLS.new_key Writer.create

let encode_with render out =
  let w = Domain.DLS.get scratch in
  Writer.reset w;
  render w;
  Buffer.add_subbytes out w.buf 0 w.len

let encode_request out ~seq r = encode_with (fun w -> Writer.request w ~seq r) out
let encode_response out ~seq r = encode_with (fun w -> Writer.response w ~seq r) out

(* -- decoding -- *)

type 'a decoded =
  | Need_more
  | Frame of { seq : int; body : 'a; consumed : int }

(* Validate the header and checksum; hand (opcode, payload offset,
   payload length) to [body] when the frame is complete. *)
let decode_frame ?(max_payload = default_max_payload) bytes ~pos ~len body =
  if len < header_size then Need_more
  else begin
    if Bytes.get_uint16_be bytes pos <> magic then
      bad "bad magic 0x%04x" (Bytes.get_uint16_be bytes pos);
    let v = Bytes.get_uint8 bytes (pos + 2) in
    if v <> version then bad "unsupported protocol version %d" v;
    let plen = get_u32 bytes (pos + 8) in
    if plen > max_payload then
      bad "payload of %d bytes exceeds the %d-byte bound" plen max_payload;
    if len < header_size + plen then Need_more
    else begin
      let sum = get_u32 bytes (pos + 12) in
      let actual = checksum bytes ~pos:(pos + header_size) ~len:plen in
      if sum <> actual then
        bad "payload checksum mismatch (frame %#x, got %#x)" sum actual;
      Frame
        {
          seq = get_u32 bytes (pos + 4);
          body = body (Bytes.get_uint8 bytes (pos + 3)) (pos + header_size) plen;
          consumed = header_size + plen;
        }
    end
  end

let need len0 len1 what = if len0 <> len1 then bad "%s payload size %d" what len0

let decode_request ?max_payload bytes ~pos ~len =
  decode_frame ?max_payload bytes ~pos ~len (fun opcode off plen ->
      let i64 i = get_i64 bytes (off + (8 * i)) in
      match opcode with
      | o when o = op_insert ->
          need plen 16 "INSERT";
          Insert { key = i64 0; value = i64 1 }
      | o when o = op_delete ->
          need plen 8 "DELETE";
          Delete { key = i64 0 }
      | o when o = op_search ->
          need plen 8 "SEARCH";
          Search { key = i64 0 }
      | o when o = op_range ->
          need plen 16 "RANGE";
          Range { lo = i64 0; hi = i64 1 }
      | o when o = op_commit ->
          need plen 0 "COMMIT";
          Commit
      | o when o = op_stats ->
          need plen 0 "STATS";
          Stats
      | o when o = op_subscribe ->
          need plen 20 "SUBSCRIBE";
          Subscribe
            {
              shard = get_u32 bytes off;
              from_lsn = get_i64 bytes (off + 4);
              max_pages = get_u32 bytes (off + 12);
              wait_ms = get_u32 bytes (off + 16);
            }
      | o when o = op_snapshot ->
          need plen 4 "SNAPSHOT";
          Snapshot { close = get_u32 bytes off <> 0 }
      | o -> bad "unknown request opcode %d" o)

let decode_response ?max_payload bytes ~pos ~len =
  decode_frame ?max_payload bytes ~pos ~len (fun status off plen ->
      let i64 i = get_i64 bytes (off + (8 * i)) in
      match status with
      | s when s = st_inserted -> Inserted
      | s when s = st_duplicate -> Duplicate
      | s when s = st_deleted -> Deleted
      | s when s = st_absent -> Absent
      | s when s = st_found ->
          need plen 8 "FOUND";
          Found (i64 0)
      | s when s = st_pairs ->
          if plen < 4 then bad "PAIRS payload size %d" plen;
          let n = get_u32 bytes off in
          need plen (4 + (16 * n)) "PAIRS";
          Pairs
            (List.init n (fun i ->
                 (get_i64 bytes (off + 4 + (16 * i)), get_i64 bytes (off + 12 + (16 * i)))))
      | s when s = st_committed -> Committed
      | s when s = st_stats ->
          need plen (8 * n_stats_fields) "STATS";
          Stats_reply (stats_of_fields (List.init n_stats_fields i64))
      | s when s = st_wal_chunk ->
          if plen < 20 then bad "WAL_CHUNK payload size %d" plen;
          let shard = get_u32 bytes off in
          let next_lsn = get_i64 bytes (off + 4) in
          let page_size = get_u32 bytes (off + 12) in
          let count = get_u32 bytes (off + 16) in
          if count > 0 && page_size = 0 then bad "WAL_CHUNK zero page size";
          need plen (20 + (page_size * count)) "WAL_CHUNK";
          Wal_chunk
            {
              shard;
              next_lsn;
              pages =
                List.init count (fun i ->
                    Bytes.sub bytes (off + 20 + (i * page_size)) page_size);
            }
      | s when s = st_snap ->
          need plen 8 "SNAP";
          Snap_reply { epoch = i64 0 }
      | s when s = st_error -> Error (Bytes.sub_string bytes off plen)
      | s -> bad "unknown response status %d" s)
