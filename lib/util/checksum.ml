(** Checksums over byte ranges for the storage layer's integrity checks.
    Neither is cryptographic — they exist to catch torn writes, bit rot
    and stale-generation pages at reopen.

    {!mx32} is the hot one: it stamps every {!Page_codec} frame (v4/v5),
    every flagged WAL record and every wire-protocol frame (version 2),
    so each page fault, write-back, logged image and served request pays
    for it. It reads 8 bytes per step in two independent
    multiply-xorshift lanes (16 B per iteration), so its cost per byte
    is about a tenth of FNV's.

    {!fnv32} is FNV-1a, byte at a time. It stays for the legacy formats
    (v2/v3 frames, unflagged WAL records) and for the cold users: the
    store header slot and the free chain. *)

let offset_basis = 0x811c9dc5
let prime = 0x01000193
let mask = 0xFFFFFFFF

let fnv32 bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Checksum.fnv32: range out of bounds";
  let h = ref offset_basis in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get bytes i)) * prime land mask
  done;
  !h

let fnv32_string s = fnv32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Words are read little-endian, whatever the host, so the value is
   part of the on-disk format. *)
let word bytes i =
  let w = get64u bytes i in
  if Sys.big_endian then swap64 w else w

let k1 = 0x9E3779B97F4A7C15L
let k2 = 0xC2B2AE3D27D4EB4FL

(* One lane step: xor the word in, multiply by an odd constant, xorshift
   the high bits down. Each part is a bijection of the lane, so two
   inputs that differ in one word leave the lane different. *)
let[@inline] step lane w k =
  let x = Int64.mul (Int64.logxor lane w) k in
  Int64.logxor x (Int64.shift_right_logical x 29)

let mx32 bytes ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length bytes - len then
    invalid_arg "Checksum.mx32: range out of bounds";
  (* Both lanes are seeded with the length, differently, so ranges of
     different lengths (a truncation) start apart and a swap of the two
     lanes' words does not cancel. *)
  let a = ref (Int64.logxor (Int64.of_int len) k1) in
  let b = ref (Int64.mul (Int64.of_int len) k2) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 16 <= stop do
    a := step !a (word bytes !i) k1;
    b := step !b (word bytes (!i + 8)) k2;
    i := !i + 16
  done;
  if !i + 8 <= stop then begin
    a := step !a (word bytes !i) k1;
    i := !i + 8
  end;
  while !i < stop do
    b := Int64.mul (Int64.logxor !b (Int64.of_int (Char.code (Bytes.unsafe_get bytes !i)))) k1;
    incr i
  done;
  (* Join the lanes asymmetrically, then the MurmurHash3 64-bit
     finaliser, folded to 32 bits for the existing u32 fields. *)
  let h = Int64.add !a (Int64.mul !b k2) in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xFF51AFD7ED558CCDL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xC4CEB9FE1A85EC53L in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 32)) land mask
