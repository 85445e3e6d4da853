(** Checksums for on-disk and on-wire integrity (torn-write and
    corruption detection). Not cryptographic. {!mx32} stamps codec
    frames, WAL records and protocol frames; {!fnv32} reads the legacy
    formats and stamps the cold structures (store header, free chain). *)

val fnv32 : Bytes.t -> pos:int -> len:int -> int
(** FNV-1a-32 of [len] bytes starting at [pos], byte at a time; always
    in [0, 2^32).
    @raise Invalid_argument when the range is out of bounds. *)

val fnv32_string : string -> int

val mx32 : Bytes.t -> pos:int -> len:int -> int
(** The multiply-xorshift checksum of [len] bytes starting at [pos]:
    8 bytes per step in two lanes, the length seeded in, the tail folded
    byte by byte, and a final avalanche folded to 32 bits; always in
    [0, 2^32). Its output is part of the on-disk format (pinned by
    known-answer tests).
    @raise Invalid_argument when the range is out of bounds. *)
