(* Store, latch, prime block and epoch reclamation tests. *)

open Repro_storage
module N = Node.Make (Key.Int)

let mk_leaf keys =
  {
    Node.level = 0;
    keys = Array.of_list keys;
    ptrs = Array.of_list (List.map (fun k -> k) keys);
    low = Bound.Neg_inf;
    high = Bound.Pos_inf;
    link = None;
    is_root = false;
    state = Node.Live;
  }

let test_alloc_get_put () =
  let s = Store.create () in
  let p = Store.alloc s (mk_leaf [ 1 ]) in
  Alcotest.(check int) "contents" 1 (Store.get s p).Node.keys.(0);
  Store.put s p (mk_leaf [ 2 ]);
  Alcotest.(check int) "rewritten" 2 (Store.get s p).Node.keys.(0);
  Alcotest.(check int) "live" 1 (Store.live_count s)

let test_reserve_then_put () =
  let s = Store.create () in
  let p = Store.reserve s in
  (match Store.get s p with
  | exception Store.Freed_page _ -> ()
  | _ -> Alcotest.fail "reserved page must be unreadable");
  Store.put s p (mk_leaf [ 9 ]);
  Alcotest.(check int) "readable after put" 9 (Store.get s p).Node.keys.(0)

let test_release_recycle () =
  let s = Store.create () in
  let p = Store.alloc s (mk_leaf [ 1 ]) in
  Store.release s p;
  (match Store.get s p with
  | exception Store.Freed_page q -> Alcotest.(check int) "freed id" p q
  | _ -> Alcotest.fail "expected Freed_page");
  let p' = Store.alloc s (mk_leaf [ 2 ]) in
  Alcotest.(check int) "page recycled" p p';
  Alcotest.(check int) "live count" 1 (Store.live_count s)

let test_many_pages_cross_chunks () =
  let s = Store.create () in
  let n = 10_000 in
  let ids = Array.init n (fun i -> Store.alloc s (mk_leaf [ i ])) in
  Array.iteri
    (fun i p ->
      let node = Store.get s p in
      if node.Node.keys.(0) <> i then Alcotest.failf "page %d corrupted" p)
    ids;
  Alcotest.(check int) "live" n (Store.live_count s)

let test_concurrent_alloc () =
  let s = Store.create () in
  let per = 5_000 and nd = 4 in
  let domains =
    Array.init nd (fun d ->
        Domain.spawn (fun () -> Array.init per (fun i -> Store.alloc s (mk_leaf [ (d * per) + i ]))))
  in
  let all = Array.concat (Array.to_list (Array.map Domain.join domains)) in
  let seen = Hashtbl.create (per * nd) in
  Array.iter
    (fun p ->
      if Hashtbl.mem seen p then Alcotest.failf "duplicate page id %d" p;
      Hashtbl.replace seen p ())
    all;
  Alcotest.(check int) "all allocated" (per * nd) (Store.live_count s)

let test_latch_excludes_lockers_not_readers () =
  let s = Store.create () in
  let p = Store.alloc s (mk_leaf [ 1 ]) in
  Store.lock s p;
  Alcotest.(check bool) "try_lock fails" false (Store.try_lock s p);
  (* a reader is never blocked by the latch *)
  Alcotest.(check int) "read while locked" 1 (Store.get s p).Node.keys.(0);
  Store.unlock s p;
  Alcotest.(check bool) "try_lock after unlock" true (Store.try_lock s p);
  Store.unlock s p

let test_iter () =
  let s = Store.create () in
  let _ = Store.alloc s (mk_leaf [ 1 ]) in
  let p2 = Store.alloc s (mk_leaf [ 2 ]) in
  let _ = Store.alloc s (mk_leaf [ 3 ]) in
  Store.release s p2;
  let seen = ref [] in
  Store.iter s (fun _ n -> seen := n.Node.keys.(0) :: !seen);
  Alcotest.(check (list int)) "live pages only" [ 1; 3 ] (List.sort compare !seen)

(* -- prime block -- *)

let test_prime_block () =
  let pb = Prime_block.create ~root_ptr:7 in
  let s = Prime_block.read pb in
  Alcotest.(check int) "initial height" 1 s.Prime_block.levels;
  Alcotest.(check int) "root" 7 (Prime_block.root s);
  Alcotest.(check (option int)) "leftmost 0" (Some 7) (Prime_block.leftmost_at s ~level:0);
  Alcotest.(check (option int)) "no level 1" None (Prime_block.leftmost_at s ~level:1);
  Prime_block.push_root pb ~root_ptr:9;
  let s = Prime_block.read pb in
  Alcotest.(check int) "height 2" 2 s.Prime_block.levels;
  Alcotest.(check int) "new root" 9 (Prime_block.root s);
  Alcotest.(check (option int)) "old leftmost kept" (Some 7)
    (Prime_block.leftmost_at s ~level:0);
  Prime_block.push_root pb ~root_ptr:11;
  Prime_block.collapse_to pb ~level:0 ~root_ptr:7;
  let s = Prime_block.read pb in
  Alcotest.(check int) "collapsed" 1 s.Prime_block.levels;
  Alcotest.(check int) "root back" 7 (Prime_block.root s)

(* -- epoch reclamation -- *)

let test_epoch_basic () =
  let e = Epoch.create () in
  let s = Store.create () in
  let p = Store.alloc s (mk_leaf [ 1 ]) in
  Epoch.retire e p;
  Alcotest.(check int) "pending" 1 (Epoch.pending e);
  let freed = Epoch.reclaim e ~release:(Store.release s) in
  Alcotest.(check int) "freed when no pins" 1 freed;
  Alcotest.(check int) "store freed" 0 (Store.live_count s)

let test_epoch_pin_blocks_reclaim () =
  let e = Epoch.create () in
  let s = Store.create () in
  ignore (Epoch.pin e ~slot:0 : int);
  let p = Store.alloc s (mk_leaf [ 1 ]) in
  Epoch.retire e p;
  let freed = Epoch.reclaim e ~release:(Store.release s) in
  Alcotest.(check int) "pinned reader blocks free" 0 freed;
  (* the pinned reader can still read the retired page *)
  Alcotest.(check int) "still readable" 1 (Store.get s p).Node.keys.(0);
  Epoch.unpin e ~slot:0;
  let freed = Epoch.reclaim e ~release:(Store.release s) in
  Alcotest.(check int) "freed after unpin" 1 freed

let test_epoch_late_pin_does_not_block () =
  let e = Epoch.create () in
  let s = Store.create () in
  let p = Store.alloc s (mk_leaf [ 1 ]) in
  Epoch.retire e p;
  (* a process that starts after the retirement must not keep it alive *)
  ignore (Epoch.pin e ~slot:3 : int);
  let freed = Epoch.reclaim e ~release:(Store.release s) in
  Alcotest.(check int) "late pin does not block" 1 freed;
  Epoch.unpin e ~slot:3

let test_epoch_pin_publish_race () =
  (* Regression for the pin-publication race: the old [pin] read [global]
     and then stored it into the pin slot; a retire + reclaim interleaved
     between the read and the store computed [min_pinned] without seeing
     the pin, freed the page, and [pin] then returned claiming the epoch
     the free was justified against. [pin_hook] fires deterministically
     in exactly that window. The publish-then-validate loop must end with
     the pinned epoch strictly above the retirement epoch of anything
     freed inside the window — on the old code this check reads pin = 0
     with the epoch-0 page freed, and fails. *)
  let e = Epoch.create () in
  let s = Store.create () in
  let p = Store.alloc s (mk_leaf [ 42 ]) in
  let freed = ref [] in
  let fired = ref false in
  Epoch.pin_hook :=
    Some
      (fun () ->
        if not !fired then begin
          fired := true;
          (* [p] is stamped with the epoch [pin] just read (0); the bump
             inside [retire] moves [global] to 1. *)
          Epoch.retire e p;
          ignore
            (Epoch.reclaim e ~release:(fun q ->
                 freed := q :: !freed;
                 Store.release s q))
        end);
  Fun.protect
    ~finally:(fun () -> Epoch.pin_hook := None)
    (fun () ->
      ignore (Epoch.pin e ~slot:0 : int);
      Alcotest.(check bool) "hook fired in the publication window" true !fired;
      (* The window reclaim saw no pin, so it legitimately freed [p]
         (retired at epoch 0, horizon max_int). The fix must then refuse
         to let the pin settle at epoch 0 — the worker "started after
         the deletion" in the paper's sense and must observe that. *)
      Alcotest.(check (list int)) "window reclaim freed the page" [ p ] !freed;
      Alcotest.(check bool)
        "pin settles strictly after the freed page's retirement epoch" true
        (Epoch.min_pinned e > 0);
      Epoch.unpin e ~slot:0)

let test_epoch_concurrent_readers_never_see_freed () =
  (* Readers pin, read a shared slot, follow it; a writer retires pages.
     Under correct epoch protection no reader ever hits Freed_page. *)
  let e = Epoch.create () in
  let s = Store.create () in
  let current = Atomic.make (Store.alloc s (mk_leaf [ 0 ])) in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let readers =
    Array.init 3 (fun slot ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (Epoch.pin e ~slot : int);
              let p = Atomic.get current in
              (try ignore (Store.get s p)
               with Store.Freed_page _ -> Atomic.incr failures);
              Epoch.unpin e ~slot
            done))
  in
  for i = 1 to 2_000 do
    let fresh = Store.alloc s (mk_leaf [ i ]) in
    let old = Atomic.exchange current fresh in
    Epoch.retire e old;
    if i mod 50 = 0 then ignore (Epoch.reclaim e ~release:(Store.release s))
  done;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  ignore (Epoch.reclaim e ~release:(Store.release s));
  Alcotest.(check int) "no freed-page reads" 0 (Atomic.get failures);
  Alcotest.(check bool) "reclamation happened" true (Epoch.total_reclaimed e > 1_000)

(* ---------- the slot table under all three stores ---------- *)

(* Slots are ownership flags: an id handed out twice at once shows as a
   failed claim. *)
let flag_table () = Slot_table.create ~name:"test" (fun () -> Atomic.make false)

let test_slot_table_concurrent () =
  let t = flag_table () in
  let nd = 4 and rounds = 20_000 in
  let twice = Atomic.make 0 in
  let domains =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| d |] in
            let held = ref [] in
            for _ = 1 to rounds do
              if !held <> [] && Random.State.bool rng then begin
                let id = List.hd !held in
                held := List.tl !held;
                Atomic.set (Slot_table.get t id) false;
                Slot_table.release t id
              end
              else begin
                let id = Slot_table.alloc t in
                if not (Atomic.compare_and_set (Slot_table.get t id) false true)
                then Atomic.incr twice;
                held := id :: !held
              end
            done;
            !held))
  in
  let held = List.concat_map Domain.join (Array.to_list domains) in
  Alcotest.(check int) "no id held twice" 0 (Atomic.get twice);
  Alcotest.(check int) "held ids distinct" (List.length held)
    (List.length (List.sort_uniq compare held));
  Alcotest.(check int) "live = allocated - freed"
    (Slot_table.allocated t - Slot_table.freed t)
    (Slot_table.live t);
  Alcotest.(check int) "live = ids held" (List.length held) (Slot_table.live t);
  Alcotest.(check int) "every hand-out counted" (nd * rounds)
    (Slot_table.allocated t + Slot_table.freed t)

let test_slot_table_order () =
  let t = flag_table () in
  let first = List.init 5 (fun _ -> Slot_table.alloc t) in
  Alcotest.(check (list int)) "bumped in sequence" [ 0; 1; 2; 3; 4 ] first;
  List.iter (Slot_table.release t) [ 1; 3; 2 ];
  Alcotest.(check (list int)) "free list, next first" [ 2; 3; 1 ] (Slot_table.free_ids t);
  let again = List.init 4 (fun _ -> Slot_table.alloc t) in
  Alcotest.(check (list int)) "freed ids come back LIFO, then the frontier"
    [ 2; 3; 1; 5 ] again;
  Alcotest.(check int) "frontier" 6 (Slot_table.frontier t);
  Alcotest.(check int) "allocated" 9 (Slot_table.allocated t);
  Alcotest.(check int) "freed" 3 (Slot_table.freed t);
  Alcotest.(check int) "live" 6 (Slot_table.live t)

let test_slot_table_chunks () =
  let t = Slot_table.create ~name:"test" (fun () -> ref (-1)) in
  let n = 4096 + 10 in
  for i = 0 to n - 1 do
    let id = Slot_table.alloc t in
    if id <> i then Alcotest.failf "id %d handed out as %d" i id;
    Slot_table.get t id := i
  done;
  for i = 0 to n - 1 do
    if !(Slot_table.get t i) <> i then Alcotest.failf "slot %d holds another's value" i
  done;
  Alcotest.(check bool) "last id of the first chunk" true
    (Option.is_some (Slot_table.find t 4095));
  Alcotest.(check bool) "first id of the second chunk" true
    (Option.is_some (Slot_table.find t 4096));
  Slot_table.release t 4096;
  Slot_table.release t 4095;
  Alcotest.(check (list int)) "recycled across the boundary" [ 4095; 4096 ]
    (List.init 2 (fun _ -> Slot_table.alloc t))

let test_slot_table_find () =
  let t = flag_table () in
  let none what id =
    Alcotest.(check bool) what true (Option.is_none (Slot_table.find t id))
  in
  none "empty table" 0;
  ignore (Slot_table.alloc t);
  Alcotest.(check bool) "handed-out id" true (Option.is_some (Slot_table.find t 0));
  none "past the frontier, chunk installed" 1;
  none "past the frontier, no chunk" 5000;
  none "negative" (-1);
  none "past capacity" (1 lsl 26);
  none "max_int" max_int;
  match Slot_table.get t 5000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get on an id whose chunk was never installed must raise"

(* The two recovery shapes: [Paged_store.open_view] restores the header's
   counters, extends over replayed pages and then installs the free
   chain with recycled pages counted allocated again;
   [Record_store.finish_restore] sets the frontier and a free list
   rebuilt from empty slots. *)
let test_slot_table_restore () =
  let t = flag_table () in
  Slot_table.restore t ~next:5000 ~allocated:5100 ~freed:200 ~free:[];
  Alcotest.(check int) "frontier" 5000 (Slot_table.frontier t);
  Alcotest.(check int) "live" 4900 (Slot_table.live t);
  ignore (Slot_table.get t 4999 : bool Atomic.t);
  Slot_table.extend t 9000;
  Alcotest.(check int) "extended frontier" 9001 (Slot_table.frontier t);
  Alcotest.(check int) "extended ids count as allocated" (5100 + 4001)
    (Slot_table.allocated t);
  ignore (Slot_table.get t 9000 : bool Atomic.t);
  Slot_table.extend t 17;
  Alcotest.(check int) "extend below the frontier moves nothing" 9001
    (Slot_table.frontier t);
  Alcotest.(check int) "nor counts" (5100 + 4001) (Slot_table.allocated t);
  Slot_table.restore t ~next:9001
    ~allocated:(Slot_table.allocated t + 1)
    ~freed:(Slot_table.freed t) ~free:[ 7; 3 ];
  Alcotest.(check int) "recycled page counted" (5100 + 4002) (Slot_table.allocated t);
  Alcotest.(check int) "freed kept" 200 (Slot_table.freed t);
  Alcotest.(check (list int)) "restored free list first, then the frontier"
    [ 7; 3; 9001 ]
    (List.init 3 (fun _ -> Slot_table.alloc t));
  let r = flag_table () in
  Slot_table.extend r 12;
  Slot_table.restore r ~next:4 ~allocated:4 ~freed:2 ~free:[ 0; 2 ];
  Alcotest.(check int) "restore lowers the frontier" 4 (Slot_table.frontier r);
  Alcotest.(check int) "live" 2 (Slot_table.live r);
  Alcotest.(check (list int)) "ascending free list, then the frontier" [ 0; 2; 4 ]
    (List.init 3 (fun _ -> Slot_table.alloc r))

let suite =
  [
    Alcotest.test_case "alloc/get/put" `Quick test_alloc_get_put;
    Alcotest.test_case "reserve then put" `Quick test_reserve_then_put;
    Alcotest.test_case "release and recycle" `Quick test_release_recycle;
    Alcotest.test_case "pages across chunks" `Quick test_many_pages_cross_chunks;
    Alcotest.test_case "concurrent alloc unique ids" `Quick test_concurrent_alloc;
    Alcotest.test_case "latch excludes lockers not readers" `Quick
      test_latch_excludes_lockers_not_readers;
    Alcotest.test_case "iter over live pages" `Quick test_iter;
    Alcotest.test_case "prime block" `Quick test_prime_block;
    Alcotest.test_case "epoch basic reclaim" `Quick test_epoch_basic;
    Alcotest.test_case "epoch pin blocks reclaim" `Quick test_epoch_pin_blocks_reclaim;
    Alcotest.test_case "epoch late pin" `Quick test_epoch_late_pin_does_not_block;
    Alcotest.test_case "epoch pin publication race" `Quick
      test_epoch_pin_publish_race;
    Alcotest.test_case "epoch protects concurrent readers" `Quick
      test_epoch_concurrent_readers_never_see_freed;
    Alcotest.test_case "slot table: 4 domains alloc and free" `Quick
      test_slot_table_concurrent;
    Alcotest.test_case "slot table: bump order, LIFO reuse" `Quick
      test_slot_table_order;
    Alcotest.test_case "slot table: ids cross a chunk" `Quick test_slot_table_chunks;
    Alcotest.test_case "slot table: find never raises" `Quick test_slot_table_find;
    Alcotest.test_case "slot table: restore and extend" `Quick
      test_slot_table_restore;
  ]
