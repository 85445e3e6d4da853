(* Range scans over the leaf chain, including under concurrent updates and
   compression, plus the string-keyed tree instantiation. *)

open Repro_storage
open Repro_core
module S = Sagiv.Make (Key.Int)
module C = Compress.Make (Key.Int)
module SS = Sagiv.Make (Key.Str)
module VS = Validate.Make (Key.Str)

let ctx = S.ctx

let test_range_basic () =
  let t = S.create ~order:2 () in
  let c = ctx ~slot:0 in
  List.iter (fun k -> ignore (S.insert t c k (k * 10))) [ 5; 1; 9; 3; 7; 2; 8 ];
  Alcotest.(check (list (pair int int)))
    "middle range"
    [ (2, 20); (3, 30); (5, 50); (7, 70) ]
    (S.range t c ~lo:2 ~hi:7);
  Alcotest.(check (list (pair int int))) "empty range" [] (S.range t c ~lo:10 ~hi:20);
  Alcotest.(check (list (pair int int))) "inverted range" [] (S.range t c ~lo:7 ~hi:2);
  Alcotest.(check (list (pair int int))) "point range" [ (5, 50) ] (S.range t c ~lo:5 ~hi:5);
  Alcotest.(check int) "full range count" 7
    (List.length (S.range t c ~lo:(min_int + 1) ~hi:max_int))

let test_range_spans_many_leaves () =
  let t = S.create ~order:2 () in
  let c = ctx ~slot:0 in
  for k = 0 to 9_999 do
    ignore (S.insert t c k k)
  done;
  let r = S.range t c ~lo:1_000 ~hi:8_999 in
  Alcotest.(check int) "count" 8_000 (List.length r);
  Alcotest.(check (pair int int)) "first" (1_000, 1_000) (List.hd r);
  Alcotest.(check bool) "ascending" true
    (let rec sorted = function
       | (a, _) :: ((b, _) :: _ as rest) -> a < b && sorted rest
       | _ -> true
     in
     sorted r)

let test_fold_range_early_bounds () =
  let t = S.create ~order:4 () in
  let c = ctx ~slot:0 in
  for k = 0 to 999 do
    if k mod 2 = 0 then ignore (S.insert t c k k)
  done;
  (* lo/hi not present as keys *)
  let sum = S.fold_range t c ~lo:101 ~hi:199 ~init:0 (fun acc k _ -> acc + k) in
  let expected = List.fold_left ( + ) 0 (List.init 49 (fun i -> 102 + (2 * i))) in
  Alcotest.(check int) "sum over absent bounds" expected sum

let test_range_after_compression () =
  let t = S.create ~order:2 () in
  let c = ctx ~slot:0 in
  for k = 0 to 2_999 do
    ignore (S.insert t c k k)
  done;
  for k = 0 to 2_999 do
    if k mod 3 <> 0 then ignore (S.delete t c k)
  done;
  ignore (C.compress_to_fixpoint t c);
  let r = S.range t c ~lo:0 ~hi:2_999 in
  Alcotest.(check int) "survivors" 1_000 (List.length r);
  List.iteri (fun i (k, _) -> if k <> i * 3 then Alcotest.failf "wrong key %d at %d" k i) r

let test_range_concurrent_inserts () =
  (* Keys present before the scan starts and never removed must all be
     seen, in order, exactly once — even while other domains insert. *)
  let t = S.create ~order:4 () in
  let c = ctx ~slot:0 in
  for k = 0 to 9_999 do
    ignore (S.insert t c (k * 2) k) (* even keys fixed *)
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let wc = ctx ~slot:1 in
        let rng = Repro_util.Splitmix.create 3 in
        while not (Atomic.get stop) do
          let k = (Repro_util.Splitmix.int rng 10_000 * 2) + 1 in
          ignore (S.insert t wc k k);
          ignore (S.delete t wc k)
        done)
  in
  for _ = 1 to 30 do
    let seen = S.fold_range t c ~lo:0 ~hi:20_000 ~init:[] (fun acc k _ -> k :: acc) in
    let evens = List.filter (fun k -> k mod 2 = 0) seen in
    if List.length evens <> 10_000 then
      Alcotest.failf "scan lost stable keys: saw %d evens" (List.length evens);
    let rec strictly_desc = function
      | a :: (b :: _ as rest) -> a > b && strictly_desc rest
      | _ -> true
    in
    if not (strictly_desc seen) then Alcotest.fail "scan not strictly ordered"
  done;
  Atomic.set stop true;
  Domain.join writer

(* -- string keys: the functor is genuinely generic -- *)

let test_string_tree () =
  let t = SS.create ~order:3 () in
  let c = SS.ctx ~slot:0 in
  let words =
    [ "pear"; "apple"; "fig"; "mango"; "kiwi"; "plum"; "date"; "grape"; "lemon"; "lime" ]
  in
  List.iteri (fun i w -> ignore (SS.insert t c w i)) words;
  Alcotest.(check int) "cardinal" 10 (SS.cardinal t);
  Alcotest.(check bool) "dup" true (SS.insert t c "fig" 99 = `Duplicate);
  Alcotest.(check (option int)) "search" (Some 4) (SS.search t c "kiwi");
  Alcotest.(check bool) "delete" true (SS.delete t c "kiwi");
  Alcotest.(check (option int)) "gone" None (SS.search t c "kiwi");
  let r = SS.range t c ~lo:"d" ~hi:"m" in
  Alcotest.(check (list string)) "string range"
    [ "date"; "fig"; "grape"; "lemon"; "lime" ]
    (List.map fst r);
  let rep = VS.check t in
  Alcotest.(check (list string)) "valid" [] rep.Validate.errors

let test_string_tree_large () =
  let t = SS.create ~order:4 () in
  let c = SS.ctx ~slot:0 in
  let key i = Printf.sprintf "key-%06d" i in
  for i = 0 to 4_999 do
    ignore (SS.insert t c (key i) i)
  done;
  for i = 0 to 4_999 do
    if SS.search t c (key i) <> Some i then Alcotest.failf "string key %d lost" i
  done;
  Alcotest.(check (list string)) "valid" [] (VS.check t).Validate.errors;
  Alcotest.(check int) "range slice" 100
    (List.length (SS.range t c ~lo:(key 100) ~hi:(key 199)))

module KP = Key.Pair (Key.Int) (Key.Str)
module SP = Sagiv.Make (KP)

let test_composite_keys () =
  (* (user_id, event) composite index: lexicographic order, per-user range
     scans. *)
  let t = SP.create ~order:3 () in
  let c = SP.ctx ~slot:0 in
  let events = [ "login"; "click"; "buy"; "logout" ] in
  for user = 1 to 50 do
    List.iteri (fun i e -> ignore (SP.insert t c (user, e) ((user * 10) + i))) events
  done;
  Alcotest.(check int) "cardinal" 200 (SP.cardinal t);
  (* all events of user 25 via a range scan *)
  let user25 = SP.range t c ~lo:(25, "") ~hi:(25, "ÿ") in
  Alcotest.(check int) "user 25 events" 4 (List.length user25);
  List.iter (fun ((u, _), _) -> Alcotest.(check int) "right user" 25 u) user25;
  (* point lookups *)
  Alcotest.(check bool) "hit" true (SP.search t c (7, "buy") <> None);
  Alcotest.(check (option int)) "miss" None (SP.search t c (7, "refund"))

let suite =
  [
    Alcotest.test_case "composite (pair) keys" `Quick test_composite_keys;
    Alcotest.test_case "range basics" `Quick test_range_basic;
    Alcotest.test_case "range spans leaves" `Quick test_range_spans_many_leaves;
    Alcotest.test_case "fold_range absent bounds" `Quick test_fold_range_early_bounds;
    Alcotest.test_case "range after compression" `Quick test_range_after_compression;
    Alcotest.test_case "range under concurrent updates" `Quick test_range_concurrent_inserts;
    Alcotest.test_case "string-keyed tree" `Quick test_string_tree;
    Alcotest.test_case "string-keyed tree, large" `Quick test_string_tree_large;
  ]
