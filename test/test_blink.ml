(* Sequential behaviour of the Sagiv tree: oracle comparison, splits,
   duplicates, structural validity. *)

open Repro_storage
open Repro_core
module S = Sagiv.Make (Key.Int)
module V = Validate.Make (Key.Int)
module D = Dump.Make (Key.Int)

let ctx () = S.ctx ~slot:0

let check_valid ?(msg = "valid") t =
  let r = V.check t in
  if not (Validate.ok r) then
    Alcotest.failf "%s: %s" msg (String.concat "; " r.Validate.errors)

let test_empty () =
  let t = S.create ~order:2 () in
  let c = ctx () in
  Alcotest.(check (option int)) "search empty" None (S.search t c 42);
  Alcotest.(check bool) "delete empty" false (S.delete t c 42);
  Alcotest.(check int) "cardinal" 0 (S.cardinal t);
  Alcotest.(check int) "height" 1 (S.height t);
  check_valid t

let test_single () =
  let t = S.create ~order:2 () in
  let c = ctx () in
  Alcotest.(check bool) "insert" true (S.insert t c 7 70 = `Ok);
  Alcotest.(check (option int)) "search hit" (Some 70) (S.search t c 7);
  Alcotest.(check (option int)) "search miss" None (S.search t c 8);
  Alcotest.(check bool) "dup" true (S.insert t c 7 71 = `Duplicate);
  Alcotest.(check (option int)) "dup did not overwrite" (Some 70) (S.search t c 7);
  check_valid t

let test_ascending () =
  let t = S.create ~order:2 () in
  let c = ctx () in
  for k = 1 to 500 do
    match S.insert t c k (k * 10) with
    | `Ok -> ()
    | `Duplicate -> Alcotest.failf "unexpected duplicate at %d" k
  done;
  check_valid t;
  Alcotest.(check int) "cardinal" 500 (S.cardinal t);
  for k = 1 to 500 do
    Alcotest.(check (option int)) (Printf.sprintf "search %d" k) (Some (k * 10))
      (S.search t c k)
  done;
  Alcotest.(check bool) "grew taller" true (S.height t > 1)

let test_descending () =
  let t = S.create ~order:2 () in
  let c = ctx () in
  for k = 500 downto 1 do
    ignore (S.insert t c k k)
  done;
  check_valid t;
  Alcotest.(check int) "cardinal" 500 (S.cardinal t);
  Alcotest.(check (option int)) "first" (Some 1) (S.search t c 1);
  Alcotest.(check (option int)) "last" (Some 500) (S.search t c 500)

let test_random_oracle () =
  let rng = Repro_util.Splitmix.create 42 in
  let t = S.create ~order:3 () in
  let c = ctx () in
  let model = Hashtbl.create 97 in
  for _ = 1 to 20_000 do
    let k = Repro_util.Splitmix.int rng 3000 in
    match Repro_util.Splitmix.int rng 3 with
    | 0 ->
        let expected = if Hashtbl.mem model k then `Duplicate else `Ok in
        if expected = `Ok then Hashtbl.replace model k (k * 3);
        let got = S.insert t c k (k * 3) in
        if got <> expected then Alcotest.failf "insert %d diverged" k
    | 1 ->
        let expected = Hashtbl.mem model k in
        Hashtbl.remove model k;
        let got = S.delete t c k in
        if got <> expected then Alcotest.failf "delete %d diverged" k
    | _ ->
        let expected = Hashtbl.find_opt model k in
        let got = S.search t c k in
        if got <> expected then Alcotest.failf "search %d diverged" k
  done;
  check_valid t;
  Alcotest.(check int) "cardinal matches model" (Hashtbl.length model) (S.cardinal t)

let test_to_list_sorted () =
  let t = S.create ~order:2 () in
  let c = ctx () in
  let keys = [ 42; 17; 99; 3; 56; 78; 21; 64; 8; 91 ] in
  List.iter (fun k -> ignore (S.insert t c k k)) keys;
  let got = List.map fst (S.to_list t) in
  Alcotest.(check (list int)) "sorted" (List.sort compare keys) got

let test_delete_leaves_structure () =
  let t = S.create ~order:2 () in
  let c = ctx () in
  for k = 1 to 200 do
    ignore (S.insert t c k k)
  done;
  for k = 1 to 200 do
    if k mod 2 = 0 then Alcotest.(check bool) "delete" true (S.delete t c k)
  done;
  check_valid t;
  Alcotest.(check int) "cardinal" 100 (S.cardinal t);
  for k = 1 to 200 do
    let expected = if k mod 2 = 1 then Some k else None in
    Alcotest.(check (option int)) (Printf.sprintf "post-delete %d" k) expected
      (S.search t c k)
  done

let test_one_lock_at_a_time () =
  (* The paper's headline claim, checked on the stats high-water mark. *)
  let t = S.create ~order:2 () in
  let c = ctx () in
  for k = 1 to 2000 do
    ignore (S.insert t c k k)
  done;
  for k = 1 to 2000 do
    ignore (S.delete t c k)
  done;
  Alcotest.(check int) "max locks held simultaneously" 1
    c.Handle.stats.Stats.max_locks_held

let test_large_order () =
  let t = S.create ~order:64 () in
  let c = ctx () in
  for k = 1 to 10_000 do
    ignore (S.insert t c k k)
  done;
  check_valid t;
  Alcotest.(check int) "cardinal" 10_000 (S.cardinal t)

let test_bulk_load () =
  List.iter
    (fun n ->
      let pairs = List.init n (fun i -> (i * 3, i * 30)) in
      let t = S.of_sorted ~order:4 pairs in
      check_valid ~msg:(Printf.sprintf "bulk n=%d" n) t;
      Alcotest.(check int) "cardinal" n (S.cardinal t);
      Alcotest.(check bool) "contents" true (S.to_list t = pairs);
      let c = ctx () in
      (* findable, and the tree is fully operational afterwards *)
      if n > 1 then begin
        Alcotest.(check (option int)) "search" (Some 30) (S.search t c 3);
        Alcotest.(check (option int)) "miss between keys" None (S.search t c 4)
      end;
      Alcotest.(check bool) "insert into loaded" true (S.insert t c (3 * n + 1) 0 = `Ok);
      Alcotest.(check bool) "delete from loaded" true (n = 0 || S.delete t c 0))
    [ 0; 1; 7; 8; 9; 100; 5_000 ];
  (* unsorted input rejected *)
  match S.of_sorted ~order:4 [ (2, 0); (1, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted input accepted"

let test_bulk_load_density () =
  let n = 10_000 in
  let pairs = List.init n (fun i -> (i, i)) in
  let bulk = S.of_sorted ~order:8 ~fill:0.9 pairs in
  let incremental = S.create ~order:8 () in
  let c = ctx () in
  List.iter (fun (k, v) -> ignore (S.insert incremental c k v)) pairs;
  let module V2 = V in
  let rb = V2.check bulk and ri = V2.check incremental in
  Alcotest.(check bool)
    (Printf.sprintf "denser: %d bulk nodes vs %d incremental" rb.Validate.total_nodes
       ri.Validate.total_nodes)
    true
    (rb.Validate.total_nodes < ri.Validate.total_nodes);
  Alcotest.(check bool) "not taller" true (rb.Validate.height <= ri.Validate.height)

(* The bulk builder's page layout, over the in-memory store and the
   paged one: each level is a left-to-right chain in key order whose
   page ids ascend and sit above the level below, and every node but a
   lone root holds k to 2k entries. *)
module Layout (St : Page_store.S with type key = int) = struct
  module T = Sagiv.Make_on_store (Key.Int) (St)
  module Vs = Validate.Make_on_store (Key.Int) (St)

  let check ~store ~order ~fill n =
    let msg = Printf.sprintf "order %d fill %.1f n=%d" order fill n in
    let pairs = List.init n (fun i -> ((i * 2) + 1, i)) in
    let t = T.of_sorted ~order ~fill ~store:(store ()) pairs in
    let r = Vs.check t in
    if not (Validate.ok r) then
      Alcotest.failf "%s: %s" msg (String.concat "; " r.Validate.errors);
    Alcotest.(check bool) (msg ^ ": contents") true (T.to_list t = pairs);
    let snap = Prime_block.read t.Handle.prime in
    let levels = snap.Prime_block.levels in
    (* walk each level along its links, leaf first *)
    let level_nodes level =
      let rec walk acc p =
        let node = St.get t.Handle.store p in
        let acc = (p, node) :: acc in
        match node.Node.link with None -> List.rev acc | Some q -> walk acc q
      in
      walk [] (Option.get (Prime_block.leftmost_at snap ~level))
    in
    let below_max = ref (-1) and below_ptrs = ref [] in
    for level = 0 to levels - 1 do
      let nodes = level_nodes level in
      let lone_root = level = levels - 1 && List.length nodes = 1 in
      let prev_high = ref Bound.Neg_inf and prev_ptr = ref (-1) in
      List.iter
        (fun (p, (nd : int Node.t)) ->
          let here = Printf.sprintf "%s: level %d page %d" msg level p in
          Alcotest.(check int) (here ^ ": level") level nd.Node.level;
          Alcotest.(check bool) (here ^ ": low is the left high") true
            (Bound.compare Int.compare nd.Node.low !prev_high = 0);
          Alcotest.(check bool) (here ^ ": ids ascend") true (p > !prev_ptr);
          Alcotest.(check bool) (here ^ ": above the level below") true
            (p > !below_max);
          Alcotest.(check bool) (here ^ ": root flag") lone_root nd.Node.is_root;
          let entries = Array.length nd.Node.ptrs in
          if not lone_root then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d entries in [k, 2k]" here entries)
              true
              (entries >= order && entries <= 2 * order);
          prev_high := nd.Node.high;
          prev_ptr := p)
        nodes;
      Alcotest.(check bool) (msg ^ ": level ends at +inf") true
        (Bound.compare Int.compare !prev_high Bound.Pos_inf = 0);
      (* the links visit exactly the children the level above names, in
         order *)
      if level > 0 then
        Alcotest.(check (list int))
          (Printf.sprintf "%s: level %d children" msg level)
          !below_ptrs
          (List.concat_map (fun (_, nd) -> Array.to_list nd.Node.ptrs) nodes);
      below_max := !prev_ptr;
      below_ptrs := List.map fst nodes
    done;
    levels

  let run ~store () =
    List.iter
      (fun order ->
        List.iter
          (fun fill ->
            List.iter
              (fun n -> ignore (check ~store ~order ~fill n : int))
              [ 0; 1; 2 * order; (2 * order) + 1 ];
            let deep = 4 * (2 * order) * (2 * order) in
            let levels = check ~store ~order ~fill deep in
            Alcotest.(check bool)
              (Printf.sprintf "order %d fill %.1f: %d levels" order fill levels)
              true (levels >= 3))
          [ 0.5; 0.9 ])
      [ 1; 2; 16 ];
    List.iter
      (fun bad ->
        match T.of_sorted ~order:2 ~store:(store ()) bad with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "input not strictly ascending accepted")
      [ [ (2, 0); (1, 0) ]; [ (1, 0); (1, 1) ]; [ (1, 0); (3, 0); (2, 0) ] ]
end

module Mem_layout = Layout (Store.For_key (Key.Int))

module Paged = Paged_store.Make (Key.Int)
module Paged_layout = Layout (Paged)

let suite =
  [
    Alcotest.test_case "bulk load" `Quick test_bulk_load;
    Alcotest.test_case "bulk load density" `Quick test_bulk_load_density;
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "single key" `Quick test_single;
    Alcotest.test_case "ascending inserts" `Quick test_ascending;
    Alcotest.test_case "descending inserts" `Quick test_descending;
    Alcotest.test_case "random ops vs oracle" `Quick test_random_oracle;
    Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
    Alcotest.test_case "deletes keep structure valid" `Quick test_delete_leaves_structure;
    Alcotest.test_case "insert/delete hold one lock max" `Quick test_one_lock_at_a_time;
    Alcotest.test_case "large order" `Quick test_large_order;
    Alcotest.test_case "bulk layout (memory store)" `Quick
      (Mem_layout.run ~store:(fun () -> Store.create ()));
    Alcotest.test_case "bulk layout (paged store)" `Quick
      (Paged_layout.run ~store:(fun () -> Paged.create_memory ~cache_pages:16 ()));
  ]
