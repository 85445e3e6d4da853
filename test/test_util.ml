(* Unit tests for the util library. *)

open Repro_util

let test_splitmix_deterministic () =
  let a = Splitmix.create 123 and b = Splitmix.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_splitmix_bounds () =
  let rng = Splitmix.create 7 in
  for _ = 1 to 10_000 do
    let v = Splitmix.int rng 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of range: %d" v
  done

let test_splitmix_float_range () =
  let rng = Splitmix.create 9 in
  for _ = 1 to 10_000 do
    let f = Splitmix.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_splitmix_split_independent () =
  let a = Splitmix.create 5 in
  let b = Splitmix.split a in
  let xs = List.init 20 (fun _ -> Splitmix.next_int64 a) in
  let ys = List.init 20 (fun _ -> Splitmix.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_permutation () =
  let rng = Splitmix.create 11 in
  let p = Splitmix.permutation rng 1000 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true
    (Array.to_list sorted = List.init 1000 Fun.id)

let test_uniformity () =
  (* Chi-squared-ish sanity: each of 10 buckets gets 10% +- 2%. *)
  let rng = Splitmix.create 99 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Splitmix.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.08 || frac > 0.12 then Alcotest.failf "bucket fraction %f" frac)
    counts

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~exponent:0.99 in
  let rng = Splitmix.create 3 in
  let counts = Hashtbl.create 64 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Zipf.sample z rng in
    if r < 1 || r > 1000 then Alcotest.failf "rank out of range: %d" r;
    Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r))
  done;
  let c1 = Option.value ~default:0 (Hashtbl.find_opt counts 1) in
  let c100 = Option.value ~default:0 (Hashtbl.find_opt counts 100) in
  (* rank 1 should be vastly more popular than rank 100 under s=0.99 *)
  Alcotest.(check bool) "rank 1 >> rank 100" true (c1 > 5 * max 1 c100)

let test_zipf_exponent_one () =
  (* The s = 1 special case exercises the log-integral branch. *)
  let z = Zipf.create ~n:100 ~exponent:1.0 in
  let rng = Splitmix.create 17 in
  for _ = 1 to 10_000 do
    let r = Zipf.sample z rng in
    if r < 1 || r > 100 then Alcotest.failf "rank out of range: %d" r
  done

let test_distribution_sequential () =
  let d = Distribution.create ~scramble:false ~space:5 Distribution.Sequential in
  let rng = Splitmix.create 1 in
  let xs = List.init 7 (fun _ -> Distribution.sample d rng) in
  Alcotest.(check (list int)) "wraps" [ 0; 1; 2; 3; 4; 0; 1 ] xs

let test_distribution_hotspot () =
  let d =
    Distribution.create ~scramble:false ~space:1000
      (Distribution.Hotspot { hot_fraction = 0.1; hot_probability = 0.9 })
  in
  let rng = Splitmix.create 21 in
  let hot = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Distribution.sample d rng < 100 then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int n in
  Alcotest.(check bool) "hot fraction near 0.9" true (frac > 0.85 && frac < 0.95)

let test_distribution_in_space () =
  List.iter
    (fun kind ->
      let d = Distribution.create ~space:500 kind in
      let rng = Splitmix.create 31 in
      for _ = 1 to 5_000 do
        let v = Distribution.sample d rng in
        if v < 0 || v >= 500 then
          Alcotest.failf "%s out of space: %d" (Distribution.kind_to_string kind) v
      done)
    [
      Distribution.Uniform;
      Distribution.Zipfian 0.99;
      Distribution.Sequential;
      Distribution.Hotspot { hot_fraction = 0.2; hot_probability = 0.8 };
    ]

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 50.0 in
  (* log buckets: within 2%, and the reported value must bound the
     percentile from above (upper-edge convention), never undershoot *)
  Alcotest.(check bool) "p50 near 500" true (p50 >= 500.0 && p50 < 530.0);
  let p99 = Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p99 near 990" true (p99 >= 990.0 && p99 < 1040.0);
  Alcotest.(check bool) "p100 is the max" true
    (Histogram.percentile h 100.0 = 1000.0);
  (* a single sample reports itself (clamped to max), not its bucket's
     lower edge *)
  let one = Histogram.create () in
  Histogram.add one 1.0;
  Alcotest.(check (float 1e-9)) "single sample percentile" 1.0
    (Histogram.percentile one 50.0);
  Alcotest.(check bool) "mean near 500.5" true (abs_float (Histogram.mean h -. 500.5) < 1.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1.0;
  Histogram.add b 100.0;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check bool) "max" true (Histogram.max_value a = 100.0);
  Alcotest.(check bool) "min" true (Histogram.min_value a = 1.0)

let test_rwlock_mutual_exclusion () =
  let rw = Rwlock.create () in
  let counter = ref 0 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Rwlock.write_lock rw;
              incr counter;
              Rwlock.write_unlock rw
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" 40_000 !counter

let test_rwlock_readers_parallel () =
  (* Two readers must be able to hold the lock simultaneously: each takes
     the read lock and then waits (bounded) for the other to arrive. If
     readers excluded each other, neither would see the rendezvous. *)
  let rw = Rwlock.create () in
  let inside = Atomic.make 0 in
  let both = Atomic.make false in
  let reader () =
    Rwlock.read_lock rw;
    Atomic.incr inside;
    let spins = ref 0 in
    while Atomic.get inside < 2 && !spins < 200_000_000 do
      incr spins;
      Domain.cpu_relax ()
    done;
    if Atomic.get inside >= 2 then Atomic.set both true;
    Rwlock.read_unlock rw
  in
  let a = Domain.spawn reader and b = Domain.spawn reader in
  Domain.join a;
  Domain.join b;
  Alcotest.(check bool) "readers overlapped" true (Atomic.get both)

let test_rwlock_try_write () =
  let rw = Rwlock.create () in
  Alcotest.(check bool) "acquires free lock" true (Rwlock.try_write_lock rw);
  Alcotest.(check bool) "fails when held" false (Rwlock.try_write_lock rw);
  Rwlock.write_unlock rw;
  Rwlock.read_lock rw;
  Alcotest.(check bool) "fails under reader" false (Rwlock.try_write_lock rw);
  Rwlock.read_unlock rw

let test_counters () =
  let c = Counters.create ~domains:4 () in
  let domains =
    Array.init 4 (fun slot ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Counters.incr c ~slot
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "sum" 4000 (Counters.read c);
  Counters.clear c;
  Alcotest.(check int) "cleared" 0 (Counters.read c)

let test_backoff_grows () =
  let b = Backoff.create () in
  Alcotest.(check int) "initial stage" 0 (Backoff.stage b);
  Backoff.once b;
  Backoff.once b;
  Alcotest.(check bool) "stage grew" true (Backoff.stage b >= 2);
  Backoff.reset b;
  Alcotest.(check int) "reset" 0 (Backoff.stage b)

(* Known answers for FNV-1a-32 (the published test vectors): this hash
   stamps header slots, the free chain and the wire format, and checks
   legacy (v2/v3) codec frames and unflagged WAL records, so a change to
   its output breaks stores, logs and clients. *)
let test_fnv32_known_answers () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check int) (Printf.sprintf "fnv32 %S" s) want (Checksum.fnv32_string s))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ];
  Alcotest.(check int) "a sub-range hashes like the substring" 0xbf9cf968
    (Checksum.fnv32 (Bytes.of_string "xxfoobarxx") ~pos:2 ~len:6)

(* Known answers for mx32 over the bytes 0, 1, 2, ...: this hash stamps
   every v4/v5 codec frame and every flagged WAL record, so these pin
   the on-disk format. Lengths cover the empty range, the byte-only tail,
   one word, one word plus a tail, one and a half lanes, one full
   two-lane step, and a leaf frame's body. *)
let test_mx32_known_answers () =
  List.iter
    (fun (len, want) ->
      let b = Bytes.init len (fun i -> Char.chr (i land 0xFF)) in
      Alcotest.(check int) (Printf.sprintf "mx32 of %d bytes" len) want
        (Checksum.mx32 b ~pos:0 ~len))
    [
      (0, 0x380b481b);
      (1, 0x06f351d1);
      (7, 0x655f6206);
      (8, 0x99988c0b);
      (15, 0xc6b831af);
      (16, 0xafa49f79);
      (17, 0x353cbbc1);
      (502, 0x042dacbb);
    ]

(* A WAL PAGE record carrying a ~500 B frame is about 566 B. *)
let record_sized () = Bytes.init 566 (fun i -> Char.chr (((i * 131) + 7) land 0xFF))

let test_mx32_detects_bit_flips () =
  let b = record_sized () in
  let len = Bytes.length b in
  let base = Checksum.mx32 b ~pos:0 ~len in
  let missed = ref 0 in
  for i = 0 to len - 1 do
    for bit = 0 to 7 do
      let orig = Bytes.get_uint8 b i in
      Bytes.set_uint8 b i (orig lxor (1 lsl bit));
      if Checksum.mx32 b ~pos:0 ~len = base then incr missed;
      Bytes.set_uint8 b i orig
    done
  done;
  Alcotest.(check int) "every single-bit flip detected" 0 !missed

let test_mx32_detects_truncation () =
  let b = record_sized () in
  for len = 1 to 40 do
    Alcotest.(check bool)
      (Printf.sprintf "%d bytes vs %d" len (len - 1))
      true
      (Checksum.mx32 b ~pos:0 ~len <> Checksum.mx32 b ~pos:0 ~len:(len - 1))
  done

let test_mx32_detects_word_swap () =
  let b = record_sized () in
  let len = Bytes.length b in
  let base = Checksum.mx32 b ~pos:0 ~len in
  List.iter
    (fun (i, j) ->
      let s = Bytes.copy b in
      Bytes.blit b (8 * i) s (8 * j) 8;
      Bytes.blit b (8 * j) s (8 * i) 8;
      Alcotest.(check bool)
        (Printf.sprintf "words %d and %d swapped" i j)
        true
        (Checksum.mx32 s ~pos:0 ~len <> base))
    [ (0, 1); (0, 2); (1, 2); (3, 40); (0, 69) ]

let test_mx32_sub_range () =
  let b = record_sized () in
  List.iter
    (fun (pos, len) ->
      Alcotest.(check int)
        (Printf.sprintf "pos %d len %d" pos len)
        (Checksum.mx32 (Bytes.sub b pos len) ~pos:0 ~len)
        (Checksum.mx32 b ~pos ~len))
    [ (0, 0); (1, 7); (3, 16); (10, 502); (5, 561); (566, 0) ];
  match Checksum.mx32 b ~pos:560 ~len:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a range past the end must be rejected"

let suite =
  [
    Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix int bounds" `Quick test_splitmix_bounds;
    Alcotest.test_case "splitmix float range" `Quick test_splitmix_float_range;
    Alcotest.test_case "splitmix split independence" `Quick test_splitmix_split_independent;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf exponent 1" `Quick test_zipf_exponent_one;
    Alcotest.test_case "sequential distribution" `Quick test_distribution_sequential;
    Alcotest.test_case "hotspot distribution" `Quick test_distribution_hotspot;
    Alcotest.test_case "all distributions in space" `Quick test_distribution_in_space;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "rwlock mutual exclusion" `Quick test_rwlock_mutual_exclusion;
    Alcotest.test_case "rwlock parallel readers" `Quick test_rwlock_readers_parallel;
    Alcotest.test_case "rwlock try_write" `Quick test_rwlock_try_write;
    Alcotest.test_case "striped counters" `Quick test_counters;
    Alcotest.test_case "backoff stages" `Quick test_backoff_grows;
    Alcotest.test_case "fnv32 known answers" `Quick test_fnv32_known_answers;
    Alcotest.test_case "mx32 known answers" `Quick test_mx32_known_answers;
    Alcotest.test_case "mx32 detects every bit flip" `Quick test_mx32_detects_bit_flips;
    Alcotest.test_case "mx32 detects truncation" `Quick test_mx32_detects_truncation;
    Alcotest.test_case "mx32 detects a word swap" `Quick test_mx32_detects_word_swap;
    Alcotest.test_case "mx32 sub-range" `Quick test_mx32_sub_range;
  ]
