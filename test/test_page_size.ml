(* Data pages sized to the node: every full node of an order fits the
   page derived for it, the disk constructors refuse an order whose
   nodes would not fit before they touch the store, a store reopens at
   the page size its header records (slot 0 torn included), and version
   records are cut into pages by their encoded bytes. *)

open Repro_storage
open Repro_baseline
module PS = Tree_intf.Paged_int
module SS = Tree_intf.Sharded_int
module Codec = Page_codec.Make (Key.Int)
module MS = Store.For_key (Key.Int)
module Sg_mem = Repro_core.Sagiv.Make_on_store (Key.Int) (MS)
module Sg = Tree_intf.Sagiv_disk
module MD = Tree_intf.Mvcc_disk

let ctx = Repro_core.Handle.ctx ~slot:0

let temp_base tag =
  let base = Filename.temp_file ("page_size_" ^ tag) "" in
  Sys.remove base;
  base

let rm_shards base ~shards =
  for i = 0 to shards - 1 do
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ SS.shard_path base i; SS.shard_path (base ^ ".wal") i ]
  done

let file_size path = (Unix.stat path).Unix.st_size

(* ---------- full nodes, built by real splits ---------- *)

(* Ascending inserts fill the rightmost leaf to 2k pairs before it
   splits, and each split feeds the rightmost internal node one more
   separator, so both reach a full 2k keys on the way. *)
let full_nodes ~order =
  let store = MS.create () in
  let t = Sg_mem.create ~order ~store () in
  let leaf = ref None and inner = ref None in
  let k = ref 0 in
  while (!leaf = None || !inner = None) && !k < 100_000 do
    ignore (Sg_mem.insert t ctx !k !k);
    incr k;
    MS.iter store (fun _ n ->
        if Node.nkeys n = 2 * order && not (Node.is_deleted n) then
          if Node.is_leaf n then leaf := Some n else inner := Some n)
  done;
  match (!leaf, !inner) with
  | Some l, Some i -> (l, i)
  | _ -> Alcotest.failf "order %d: no full leaf and full inner node" order

let test_full_nodes_fit () =
  List.iter
    (fun (order, want) ->
      let page = Tree_intf.page_size_for_order order in
      Alcotest.(check int) (Printf.sprintf "order %d page" order) want page;
      let bound = Page_codec.node_frame_bound ~key_bytes:8 ~order in
      let leaf, inner = full_nodes ~order in
      (* the bound is exact: an infinite bound saves its 8 key bytes, a
         leaf its 2k + 1st ptr *)
      let infinite = function Bound.Key _ -> 0 | Bound.Neg_inf | Bound.Pos_inf -> 1 in
      let unused (n : int Node.t) =
        (8 * (infinite n.Node.low + infinite n.Node.high))
        + if Node.is_leaf n then 8 else 0
      in
      List.iter
        (fun (what, n) ->
          let len = Bytes.length (Codec.to_bytes n) in
          if len + unused n <> bound || len > page then
            Alcotest.failf "order %d: full %s frames %d B (bound %d, page %d)"
              order what len bound page)
        [ ("leaf", leaf); ("inner node", inner) ])
    [ (2, 512); (4, 512); (16, 1024); (32, 2048); (64, 4096) ]

(* ---------- refused before the tree changes ---------- *)

let test_constructors_refuse_small_pages () =
  let sst = SS.create_memory ~page_size:1024 ~shards:2 () in
  let refused f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "order 32 on 1 KB pages must be refused"
  in
  refused (fun () -> ignore (Tree_intf.sagiv_disk_sharded_on ~order:32 sst));
  refused (fun () -> ignore (Tree_intf.sagiv_mvcc_disk_on ~order:32 sst));
  Array.iter
    (fun store ->
      Alcotest.(check int) "no page allocated" 0 (PS.live_count store);
      Alcotest.(check bool) "no metadata" true (PS.get_meta store = None))
    (SS.stores sst);
  (* the order the pages were sized for is accepted *)
  let _, h = Tree_intf.sagiv_disk_sharded_on ~order:16 sst in
  ignore (h.Tree_intf.insert ctx 1 10);
  let sized = Tree_intf.sagiv_disk () in
  let h = sized.Tree_intf.make ~order:64 in
  for k = 0 to 999 do
    ignore (h.Tree_intf.insert ctx k k)
  done;
  h.Tree_intf.commit ();
  Alcotest.(check int) "order 64 on its own pages" 1000 (h.Tree_intf.cardinal ())

(* ---------- the page size comes from the header ---------- *)

(* What [serve --order 64 --backend disk --path] does:
   create at the order's page, commit, stop without a checkpoint, and
   reopen with no size given. *)
let test_order64_store_reopens () =
  let base = temp_base "o64" in
  Fun.protect ~finally:(fun () -> rm_shards base ~shards:1) @@ fun () ->
  let page_size = Tree_intf.page_size_for_order 64 in
  let sst = SS.create_file ~page_size ~wal_path:(base ^ ".wal") ~shards:1 base in
  let _, h = Tree_intf.sagiv_disk_sharded_on ~order:64 sst in
  for k = 0 to 1999 do
    ignore (h.Tree_intf.insert ctx k (k * 3))
  done;
  h.Tree_intf.commit ();
  Alcotest.(check int) "4096-byte pages" 4096 (PS.page_size (SS.store sst 0));
  Alcotest.(check int) "file in whole 4096-byte pages" 0
    (file_size (SS.shard_path base 0) mod 4096);
  let sst2 = SS.open_file ~wal_path:(base ^ ".wal") ~shards:1 base in
  Alcotest.(check int) "reopened at the header's size" 4096
    (PS.page_size (SS.store sst2 0));
  let _, h2 = Tree_intf.sagiv_disk_sharded_open sst2 in
  for k = 0 to 1999 do
    if h2.Tree_intf.search ctx k <> Some (k * 3) then
      Alcotest.failf "key %d lost across the reopen" k
  done;
  SS.close sst2

let build_store ~page_size path =
  let store =
    match page_size with
    | Some page_size -> PS.create_file ~page_size ~cache_pages:16 path
    | None -> PS.create_file ~cache_pages:16 path
  in
  let t = Sg.create ~order:4 ~store () in
  for k = 0 to 299 do
    ignore (Sg.insert t ctx k (k * 7))
  done;
  Sg.flush t;
  Sg.flush t;
  Sg.flush t;
  (* the close syncs once more: generation 4 sits in slot 0, 3 (the same
     contents) in slot 1 *)
  PS.close store

let reopen_check ~page_size ~gen path msg =
  let store = PS.open_file ~cache_pages:16 path in
  Alcotest.(check int) (msg ^ ": page size") page_size (PS.page_size store);
  Alcotest.(check int) (msg ^ ": generation") gen (PS.generation store);
  let t = Sg.open_existing store in
  for k = 0 to 299 do
    if Sg.search t ctx k <> Some (k * 7) then Alcotest.failf "%s: key %d lost" msg k
  done;
  PS.close store

let with_tmp f =
  let path = Filename.temp_file "page_size" ".pages" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_default_store_reopens () =
  with_tmp (fun path ->
      build_store ~page_size:None path;
      Alcotest.(check int) "1 KB pages on disk" 0 (file_size path mod 1024);
      reopen_check ~page_size:Paged_store.default_page_size ~gen:4 path "1 KB store")

(* A tear that wrecks slot 0 from its first byte leaves no page size to
   read: the reopen must find slot 1 at the one offset where a whole
   slot validates. *)
let tear_slot0 path ~page_size =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  let junk = Bytes.make (page_size / 2) 'x' in
  ignore (Unix.write fd junk 0 (Bytes.length junk));
  Unix.close fd

let test_torn_slot0 () =
  List.iter
    (fun page_size ->
      with_tmp (fun path ->
          build_store ~page_size:(Some page_size) path;
          tear_slot0 path ~page_size;
          reopen_check ~page_size ~gen:3 path
            (Printf.sprintf "%d-byte store, slot 0 torn" page_size)))
    [ 1024; 4096 ]

(* ---------- version records filled by bytes ---------- *)

(* Payloads mapped to ints at or above 2^56 take 9 varint bytes each —
   close to the worst case the old int cap assumed for every int. Every
   vrec frame must still fit the smallest page, across several pages
   per group, and read back after a reopen. *)
let test_vrec_large_varints_fit () =
  with_tmp (fun path ->
      let big = 1 lsl 56 in
      let enc v = v + big and dec x = x - big in
      let store = PS.create_file ~page_size:512 ~cache_pages:32 path in
      let t = MD.create_durable ~order:4 ~enc ~dec store in
      for round = 0 to 3 do
        for k = 0 to 63 do
          MD.upsert t ctx k ((round * 1000) + k)
        done
      done;
      MD.flush t;
      Alcotest.(check bool) "groups span several vrec pages" true
        (MD.persisted_pages t > 2);
      let budget = Page_codec.vrec_budget ~page_size:512 in
      let vrec = ref 0 in
      PS.iter store (fun _ n ->
          if n.Node.level = Node.vrec_level then begin
            incr vrec;
            let len = Bytes.length (Codec.to_bytes n) in
            if len > 512 then Alcotest.failf "vrec frame of %d B on a 512 B page" len;
            let bytes =
              Array.fold_left (fun a v -> a + Page_codec.varint_bytes v) 0 n.Node.ptrs
            in
            if bytes > budget then Alcotest.failf "vrec payload %d B over budget %d" bytes budget
          end);
      Alcotest.(check bool) "vrec pages seen" true (!vrec > 2);
      PS.close store;
      let store = PS.open_file ~cache_pages:32 path in
      let t = MD.open_durable ~enc ~dec store in
      for k = 0 to 63 do
        Alcotest.(check (option int)) (Printf.sprintf "key %d" k)
          (Some (3000 + k)) (MD.get t ctx k)
      done;
      PS.close store)

let suite =
  [
    Alcotest.test_case "full nodes fit their derived page" `Quick test_full_nodes_fit;
    Alcotest.test_case "disk constructors refuse pages too small" `Quick
      test_constructors_refuse_small_pages;
    Alcotest.test_case "order-64 store is 4096 B and reopens" `Quick
      test_order64_store_reopens;
    Alcotest.test_case "1 KB store reopens at its size" `Quick test_default_store_reopens;
    Alcotest.test_case "torn slot 0 opens from slot 1 (1 KB, 4 KB)" `Quick test_torn_slot0;
    Alcotest.test_case "vrec frames fit at 9-byte varints" `Quick
      test_vrec_large_varints_fit;
  ]
