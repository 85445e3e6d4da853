(** SplitMix64 pseudo-random number generator.

    A small, fast, splittable PRNG (Steele, Lea & Flood, OOPSLA'14). Each
    worker domain owns an independent stream derived with {!split}, so
    concurrent workloads never contend on shared generator state. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* Mixing function from the reference implementation (variant 13). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(** [split t] returns a statistically independent generator; [t] advances. *)
let split t =
  let s = next_int64 t in
  { state = mix64 s }

(** Non-negative int uniform over the full 62-bit positive range. *)
let next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = next_int t in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then go () else v
  in
  go ()

(** Uniform float in [\[0, 1)]. *)
let float t =
  let bits53 = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits53 *. (1.0 /. 9007199254740992.0)

(** Fisher–Yates shuffle in place. *)
let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** Random permutation of [0 .. n-1]. *)
let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  arr
