(** Binary page format.

    Each tree node corresponds to "a page or block of secondary storage"
    (paper §2.2). The in-memory store keeps decoded nodes for speed, but
    this codec defines the durable format: it is exercised by the
    persistence layer (snapshot save/load, the paged store) and by
    round-trip tests, so the library could be rebased onto a real pager
    without touching tree code.

    Every node is framed with its body length and a checksum of the
    body, so a torn or partially-persisted page is {e detected} at
    decode time (raising {!Corrupt}) rather than parsed into a plausible
    but wrong node — the failure mode crash-recovery testing punishes
    hardest (see doc/RECOVERY.md).

    Layout (little-endian):
    {v
      magic      u8   = 0xB7
      version    u8   = 4 or 5 (2 or 3: legacy, read only)
      body_len   u32  (bytes after the checksum field)
      checksum   u32  (of the body: Checksum.mx32 for v4/v5,
                       FNV-1a-32 for v2/v3)
      -- body --
      level      u16
      flags      u8   (bit0 root, bit1 deleted)
      fwd        i64  (forwarding ptr when deleted, else -1)
      link       i64  (-1 = nil)
      low_tag    u8   (0 = -inf, 1 = key, 2 = +inf) [key bytes if tag = 1]
      high_tag   u8   likewise
      nkeys      u32  [keys]
      nptrs      u32  [ptrs: i64s in v2/v4, varints in v3/v5]
    v}

    Versions come in pairs that differ only in the checksum. v2 and v4
    store ptrs as fixed i64s. v3 and v5 store them as LEB128/zigzag
    varints; they are written only for {!Node.vrec_level} pages, whose
    ptrs are a dense int stream (epochs, tags, encoded values) dominated
    by small numbers, where varints cut them 3–6x. Writers emit v4/v5;
    v2/v3 are the FNV-1a-checksummed frames of stores written before the
    word-at-a-time checksum, and still decode. A frame has the same
    byte length in either version of its pair. *)

let magic = 0xB7
let version = 4
let version_varint = 5
let legacy_version = 2
let legacy_version_varint = 3

let frame_bytes = 10 (* magic + version + body_len + checksum *)

exception Corrupt of string

let known_version v = v >= legacy_version && v <= version_varint

let frame_length page =
  if
    Bytes.length page < frame_bytes
    || Bytes.get_uint8 page 0 <> magic
    || not (known_version (Bytes.get_uint8 page 1))
  then None
  else
    let len = frame_bytes + (Int32.to_int (Bytes.get_int32_le page 2) land 0xFFFFFFFF) in
    if len <= Bytes.length page then Some len else None

(* Body bytes besides keys and ptrs: level, flags, fwd, link, both
   bound tags, and the two counts. *)
let fixed_body_bytes = 2 + 1 + 8 + 8 + 1 + 1 + 4 + 4

let node_frame_bound ~key_bytes ~order =
  (* 2k keys, up to 2k + 1 ptrs (internal), two key bounds *)
  let keys = 2 * order in
  frame_bytes + fixed_body_bytes + ((keys + 2) * key_bytes) + ((keys + 1) * 8)

let min_page_size = 512

let page_size_for ~key_bytes ~order =
  let need = node_frame_bound ~key_bytes ~order in
  let rec grow p = if p >= need then p else grow (2 * p) in
  grow min_page_size

let vrec_budget ~page_size = page_size - frame_bytes - fixed_body_bytes

(* Zigzag on 63-bit OCaml ints, so small negatives (-1 = nil ptr) stay
   small. *)
let zigzag v = (v lsl 1) lxor (v asr 62)

let varint_bytes v =
  let rec go u n = if u land lnot 0x7F = 0 then n else go (u lsr 7) (n + 1) in
  go (zigzag v) 1

(* LEB128 over the zigzag mapping. *)
let add_varint buf v =
  let u = zigzag v in
  let rec go u =
    if u land lnot 0x7F = 0 then Buffer.add_uint8 buf u
    else begin
      Buffer.add_uint8 buf (0x80 lor (u land 0x7F));
      go (u lsr 7)
    end
  in
  go u

let get_varint bytes ~pos =
  let rec go acc shift pos =
    if pos >= Bytes.length bytes then raise (Corrupt "truncated varint");
    let b = Bytes.get_uint8 bytes pos in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1)
    else if shift >= 63 then raise (Corrupt "varint overflow")
    else go acc (shift + 7) (pos + 1)
  in
  let u, pos = go 0 0 pos in
  ((u lsr 1) lxor (-(u land 1)), pos)

module Make (K : Key.S) = struct
  let encode_bound buf = function
    | Bound.Neg_inf -> Buffer.add_uint8 buf 0
    | Bound.Key k ->
        Buffer.add_uint8 buf 1;
        K.encode buf k
    | Bound.Pos_inf -> Buffer.add_uint8 buf 2

  let decode_bound bytes ~pos =
    match Bytes.get_uint8 bytes pos with
    | 0 -> (Bound.Neg_inf, pos + 1)
    | 1 ->
        let k, pos = K.decode bytes ~pos:(pos + 1) in
        (Bound.Key k, pos)
    | 2 -> (Bound.Pos_inf, pos + 1)
    | t -> raise (Corrupt (Printf.sprintf "bad bound tag %d" t))

  let encode_body buf ~varint (n : K.t Node.t) =
    Buffer.add_uint16_le buf n.Node.level;
    let deleted, fwd =
      match n.Node.state with Node.Deleted f -> (true, f) | Node.Live -> (false, -1)
    in
    let flags = (if n.Node.is_root then 1 else 0) lor if deleted then 2 else 0 in
    Buffer.add_uint8 buf flags;
    Buffer.add_int64_le buf (Int64.of_int fwd);
    Buffer.add_int64_le buf (Int64.of_int (match n.Node.link with Some p -> p | None -> -1));
    encode_bound buf n.Node.low;
    encode_bound buf n.Node.high;
    Buffer.add_int32_le buf (Int32.of_int (Array.length n.Node.keys));
    Array.iter (K.encode buf) n.Node.keys;
    Buffer.add_int32_le buf (Int32.of_int (Array.length n.Node.ptrs));
    if varint then Array.iter (add_varint buf) n.Node.ptrs
    else Array.iter (fun p -> Buffer.add_int64_le buf (Int64.of_int p)) n.Node.ptrs

  (* The whole frame is rendered once, into one buffer behind a
     placeholder header; the single [Buffer.to_bytes] copy is then
     patched in place with the body length and checksum. *)
  let header_placeholder = String.make frame_bytes '\000'

  let to_bytes (n : K.t Node.t) =
    let varint = n.Node.level = Node.vrec_level in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf header_placeholder;
    encode_body buf ~varint n;
    let b = Buffer.to_bytes buf in
    let body_len = Bytes.length b - frame_bytes in
    Bytes.set_uint8 b 0 magic;
    Bytes.set_uint8 b 1 (if varint then version_varint else version);
    Bytes.set_int32_le b 2 (Int32.of_int body_len);
    Bytes.set_int32_le b 6
      (Int32.of_int (Repro_util.Checksum.mx32 b ~pos:frame_bytes ~len:body_len));
    b

  let encode buf n = Buffer.add_bytes buf (to_bytes n)

  let decode bytes ~pos : K.t Node.t * int =
    if pos + frame_bytes > Bytes.length bytes then raise (Corrupt "truncated frame");
    if Bytes.get_uint8 bytes pos <> magic then raise (Corrupt "bad magic");
    let ver = Bytes.get_uint8 bytes (pos + 1) in
    if not (known_version ver) then raise (Corrupt "bad version");
    let varint = ver = version_varint || ver = legacy_version_varint in
    let body_len = Int32.to_int (Bytes.get_int32_le bytes (pos + 2)) in
    if body_len < 0 || pos + frame_bytes + body_len > Bytes.length bytes then
      raise (Corrupt "bad body length");
    let want = Int32.to_int (Bytes.get_int32_le bytes (pos + 6)) land 0xFFFFFFFF in
    let sum =
      if ver >= version then Repro_util.Checksum.mx32 else Repro_util.Checksum.fnv32
    in
    let got = sum bytes ~pos:(pos + frame_bytes) ~len:body_len in
    if want <> got then
      raise
        (Corrupt
           (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)" want got));
    let pos = pos + frame_bytes in
    let body_end = pos + body_len in
    let level = Bytes.get_uint16_le bytes pos in
    let flags = Bytes.get_uint8 bytes (pos + 2) in
    let fwd = Int64.to_int (Bytes.get_int64_le bytes (pos + 3)) in
    let link = Int64.to_int (Bytes.get_int64_le bytes (pos + 11)) in
    let pos = pos + 19 in
    let low, pos = decode_bound bytes ~pos in
    let high, pos = decode_bound bytes ~pos in
    let nkeys = Int32.to_int (Bytes.get_int32_le bytes pos) in
    (* Every key and every ptr takes at least one byte, so a count past
       the bytes left is damage — caught before it sizes an allocation. *)
    if nkeys < 0 || nkeys > body_end - (pos + 4) then raise (Corrupt "bad key count");
    let pos = ref (pos + 4) in
    let keys =
      Array.init nkeys (fun _ ->
          let k, p = K.decode bytes ~pos:!pos in
          pos := p;
          k)
    in
    let nptrs = Int32.to_int (Bytes.get_int32_le bytes !pos) in
    if nptrs < 0 || nptrs > body_end - (!pos + 4) then raise (Corrupt "bad ptr count");
    pos := !pos + 4;
    let ptrs =
      if varint then
        Array.init nptrs (fun _ ->
            let v, p = get_varint bytes ~pos:!pos in
            pos := p;
            v)
      else
        Array.init nptrs (fun _ ->
            let v = Int64.to_int (Bytes.get_int64_le bytes !pos) in
            pos := !pos + 8;
            v)
    in
    if !pos <> body_end then raise (Corrupt "body length does not match contents");
    let node =
      {
        Node.level;
        keys;
        ptrs;
        low;
        high;
        link = (if link < 0 then None else Some link);
        is_root = flags land 1 <> 0;
        state = (if flags land 2 <> 0 then Node.Deleted fwd else Node.Live);
      }
    in
    (node, !pos)

  let of_bytes bytes = fst (decode bytes ~pos:0)

  (** Encoded size in bytes; benches use it to report space utilisation in
      on-disk terms. *)
  let encoded_size n = Bytes.length (to_bytes n)
end
