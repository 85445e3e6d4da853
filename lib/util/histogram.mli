(** Logarithmic-bucket histogram (HdrHistogram-style) for latency and
    magnitude reporting: ~1% value precision, constant memory, allocation-
    free recording. Not thread-safe; keep one per domain and {!merge}. *)

type t

val create : unit -> t
(** An empty histogram: buckets 1% wide; values at or below 1e-9 share
    the lowest bucket. *)

val clear : t -> unit
val add : t -> float -> unit
val merge : into:t -> t -> unit
val count : t -> int
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]], accurate to the bucket
    width. Reports the target bucket's {e upper} bound (HdrHistogram
    convention) clamped to the observed maximum, so at least [p]% of
    the samples are ≤ the returned value — never an undershooting
    lower bound. *)
