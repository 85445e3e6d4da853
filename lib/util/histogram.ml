(** Logarithmic-bucket latency histogram.

    Buckets grow geometrically (HdrHistogram-style with fixed precision):
    value [v] lands in bucket [floor (log_{gamma} v)]. Good enough for
    percentile reporting in benches without per-sample allocation. *)

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

(* 4096 buckets at 1% precision span ~1e-9 .. ~5e8, enough for latencies
   in seconds and for plain magnitudes in benches. Values at or below
   [floor_v] share bucket 0. *)
let bucket_count = 4096
let gamma_log = log 1.01
let floor_v = 1e-9

let create () =
  {
    buckets = Array.make bucket_count 0;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let clear t =
  Array.fill t.buckets 0 bucket_count 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity

let bucket_of v =
  if v <= floor_v then 0
  else
    let b = int_of_float (log (v /. floor_v) /. gamma_log) in
    if b < 0 then 0 else if b >= bucket_count then bucket_count - 1 else b

let value_of_bucket b = floor_v *. exp (float_of_int b *. gamma_log)

let add t v =
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

(** Merge [src] into [dst]; used to combine per-domain histograms. *)
let merge ~into:dst src =
  Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.min_v < dst.min_v then dst.min_v <- src.min_v;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

let count t = t.count
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.min_v
let max_value t = if t.count = 0 then 0.0 else t.max_v

(** [percentile t p] for [p] in [\[0, 100\]]; approximate to bucket width.

    Returns the target bucket's {e upper} bound (the HdrHistogram
    "highest equivalent value" convention), clamped to the observed
    maximum: every sample in the bucket is ≤ the reported value, so
    "p99 = x" means 99% of samples were at most x. The lower bound
    systematically undershot by up to one bucket width — a sample
    recorded as 1.0 sits in a bucket whose lower edge is ~0.99. *)
let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let target = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
    let target = if target < 1 then 1 else target in
    let upper b = Float.min (value_of_bucket (b + 1)) t.max_v in
    let rec go b acc =
      if b >= bucket_count then upper (bucket_count - 1)
      else
        let acc = acc + t.buckets.(b) in
        if acc >= target then upper b else go (b + 1) acc
    in
    go 0 0
  end
