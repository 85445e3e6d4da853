(* PAGE_STORE conformance: the same store-primitive and Sagiv-tree battery
   run over both backends — the in-memory Store and the durable
   Paged_store — through the Make_on_store functors, plus disk-only tests
   (small-cache eviction under concurrency, close/reopen durability). *)

open Repro_storage
open Repro_core

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

module Conformance (S : sig
  include Page_store.S with type key = int

  val name : string
end) =
struct
  module Sg = Sagiv.Make_on_store (Key.Int) (S)
  module V = Validate.Make_on_store (Key.Int) (S)
  module Cp = Compress.Make_on_store (Key.Int) (S)
  module Co = Compactor.Make_on_store (Key.Int) (S)

  let ctx = Sg.ctx

  let check_valid t msg =
    let r = V.check t in
    if not (Validate.ok r) then
      Alcotest.failf "%s: %s" msg (String.concat "; " r.Validate.errors)

  let bytes_like =
    Alcotest.testable
      (fun fmt b -> Format.pp_print_string fmt (Bytes.to_string b))
      Bytes.equal

  let test_primitives () =
    let s = S.create () in
    let p = S.alloc s (mk_leaf [ 1 ]) in
    Alcotest.(check int) "contents" 1 (S.get s p).Node.keys.(0);
    S.put s p (mk_leaf [ 2 ]);
    Alcotest.(check int) "rewritten" 2 (S.get s p).Node.keys.(0);
    Alcotest.(check int) "live" 1 (S.live_count s);
    let q = S.reserve s in
    (match S.get s q with
    | exception Page_store.Freed_page _ -> ()
    | _ -> Alcotest.fail "reserved page must be unreadable");
    S.put s q (mk_leaf [ 9 ]);
    Alcotest.(check int) "readable after put" 9 (S.get s q).Node.keys.(0);
    (* sync first so a durable backend has the old contents on disk: the
       recycled-page checks below must raise Freed_page, not resurrect
       the pre-release node from storage *)
    S.sync s;
    S.release s q;
    (match S.get s q with
    | exception Page_store.Freed_page i -> Alcotest.(check int) "freed id" q i
    | _ -> Alcotest.fail "released page must be unreadable");
    Alcotest.(check int) "live after release" 1 (S.live_count s);
    let q2 = S.reserve s in
    Alcotest.(check int) "released id recycled" q q2;
    (match S.get s q2 with
    | exception Page_store.Freed_page _ -> ()
    | _ -> Alcotest.fail "recycled page must be unreadable before its first put");
    S.put s q2 (mk_leaf [ 11 ]);
    Alcotest.(check int) "readable after recycle put" 11 (S.get s q2).Node.keys.(0);
    S.release s q2;
    Alcotest.(check bool) "try_lock free page latch" true (S.try_lock s p);
    Alcotest.(check bool) "try_lock held latch" false (S.try_lock s p);
    S.unlock s p;
    S.lock s p;
    S.unlock s p;
    let seen = ref [] in
    S.iter s (fun ptr n -> seen := (ptr, n.Node.keys.(0)) :: !seen);
    Alcotest.(check (list (pair int int))) "iter sees exactly the live page"
      [ (p, 2) ] !seen;
    Alcotest.(check (option bytes_like)) "no meta yet" None (S.get_meta s)

  let test_meta_roundtrip () =
    let s = S.create () in
    S.set_meta s (Bytes.of_string "hello");
    S.sync s;
    match S.get_meta s with
    | Some b -> Alcotest.(check string) "meta" "hello" (Bytes.to_string b)
    | None -> Alcotest.fail "meta lost"

  let test_sequential_battery () =
    let t = Sg.create ~order:4 () in
    let c = ctx ~slot:0 in
    let n = 2000 in
    let key i = (i * 2_654_435_761) land 0xFFFFF in
    let inserted = Hashtbl.create n in
    for i = 0 to n - 1 do
      let k = key i in
      match Sg.insert t c k (k + 1) with
      | `Ok -> Hashtbl.replace inserted k ()
      | `Duplicate ->
          if not (Hashtbl.mem inserted k) then
            Alcotest.failf "spurious duplicate for %d" k
    done;
    check_valid t "after inserts";
    Alcotest.(check int) "cardinal" (Hashtbl.length inserted) (Sg.cardinal t);
    Hashtbl.iter
      (fun k () ->
        if Sg.search t c k <> Some (k + 1) then Alcotest.failf "key %d lost" k)
      inserted;
    (* delete every other inserted key, then compress to the fixpoint *)
    let victims =
      Hashtbl.fold (fun k () acc -> k :: acc) inserted []
      |> List.sort compare
      |> List.filteri (fun i _ -> i mod 2 = 0)
    in
    List.iter
      (fun k ->
        if not (Sg.delete t c k) then Alcotest.failf "delete %d failed" k;
        Hashtbl.remove inserted k)
      victims;
    check_valid t "after deletes";
    ignore (Cp.compress_to_fixpoint t c);
    ignore (Sg.reclaim t);
    check_valid t "after compression";
    Alcotest.(check int) "cardinal after deletes" (Hashtbl.length inserted)
      (Sg.cardinal t);
    Hashtbl.iter
      (fun k () ->
        if Sg.search t c k <> Some (k + 1) then
          Alcotest.failf "key %d lost by compression" k)
      inserted;
    Alcotest.(check (list int)) "no leaked pages" [] (V.leak_check t)

  let test_concurrent_battery () =
    (* multi-domain inserts + deletes with a live compactor: the full
       Sagiv concurrency surface over this backend *)
    let t = Sg.create ~order:4 ~enqueue_on_delete:true () in
    let nd = 4 and per = 3000 in
    let stop = Atomic.make false in
    let compactor =
      Domain.spawn (fun () -> Co.run_worker t (ctx ~slot:nd) ~stop)
    in
    let domains =
      Array.init nd (fun i ->
          Domain.spawn (fun () ->
              let c = ctx ~slot:i in
              for j = 0 to per - 1 do
                let k = (j * nd) + i in
                (match Sg.insert t c k (k * 2) with
                | `Ok -> ()
                | `Duplicate -> failwith "spurious duplicate");
                (* delete our previous key half the time to feed the queue *)
                if j > 0 && j mod 2 = 0 then
                  ignore (Sg.delete t c (((j - 1) * nd) + i))
              done))
    in
    Array.iter Domain.join domains;
    Atomic.set stop true;
    Domain.join compactor;
    let c = ctx ~slot:0 in
    ignore (Co.run_until_empty t c);
    check_valid t "after concurrent battery";
    for j = 0 to per - 1 do
      for i = 0 to nd - 1 do
        let k = (j * nd) + i in
        let deleted = j > 0 && j mod 2 = 1 && j < per - 1 in
        (* keys deleted are those with odd j (deleted by the j+1 step) *)
        match Sg.search t c k with
        | Some v when not deleted ->
            if v <> k * 2 then Alcotest.failf "key %d wrong payload" k
        | None when deleted -> ()
        | Some _ -> Alcotest.failf "key %d should be deleted" k
        | None -> Alcotest.failf "key %d lost" k
      done
    done;
    ignore (Sg.reclaim t)

  let test_flush_open_existing () =
    (* metadata-level reopen on the same live store object: works on any
       backend, durable or not *)
    let store = S.create () in
    let t = Sg.create ~order:6 ~store () in
    let c = ctx ~slot:0 in
    for k = 0 to 999 do
      ignore (Sg.insert t c k k)
    done;
    Sg.flush t;
    let t' = Sg.open_existing store in
    check_valid t' "reopened";
    Alcotest.(check int) "order survives" 6 (Sg.order t');
    Alcotest.(check int) "cardinal survives" 1000 (Sg.cardinal t');
    for k = 0 to 999 do
      if Sg.search t' c k <> Some k then Alcotest.failf "key %d lost" k
    done;
    (match Sg.open_existing (S.create ()) with
    | exception Sg.Corrupt _ -> ()
    | _ -> Alcotest.fail "open_existing of an empty store must fail")

  let suite =
    let tc name f = Alcotest.test_case (Printf.sprintf "%s: %s" S.name name) `Quick f in
    [
      tc "store primitives" test_primitives;
      tc "meta roundtrip" test_meta_roundtrip;
      tc "sequential battery" test_sequential_battery;
      tc "concurrent battery" test_concurrent_battery;
      tc "flush + open_existing" test_flush_open_existing;
    ]
end

module Mem = Conformance (struct
  include Store.For_key (Key.Int)

  let name = "mem"
end)

module Paged_int = Paged_store.Make (Key.Int)

module Disk = Conformance (struct
  include Paged_int

  let name = "disk"
end)

(* -- disk-only tests -- *)

module Sg = Sagiv.Make_on_store (Key.Int) (Paged_int)
module V = Validate.Make_on_store (Key.Int) (Paged_int)

let check_valid t msg =
  let r = V.check t in
  if not (Validate.ok r) then
    Alcotest.failf "%s: %s" msg (String.concat "; " r.Validate.errors)

(* A cache far smaller than the working set: every traversal faults and
   evicts while four domains hammer the tree. *)
let test_small_cache_concurrent () =
  let store = Paged_int.create_memory ~cache_pages:32 () in
  let t = Sg.create ~order:4 ~store () in
  let nd = 4 and per = 2000 in
  let domains =
    Array.init nd (fun i ->
        Domain.spawn (fun () ->
            let c = Sg.ctx ~slot:i in
            for j = 0 to per - 1 do
              let k = (j * nd) + i in
              match Sg.insert t c k k with
              | `Ok -> ()
              | `Duplicate -> failwith "spurious duplicate"
            done))
  in
  Array.iter Domain.join domains;
  check_valid t "after small-cache inserts";
  Alcotest.(check int) "cardinal" (nd * per) (Sg.cardinal t);
  Alcotest.(check bool) "cache stayed bounded" true
    (Paged_int.cached_nodes store <= 32 + nd + 1);
  let stats = Paged_int.pool_stats store in
  Alcotest.(check bool) "eviction actually ran" true (stats.Buffer_pool.writebacks > 0);
  let c = Sg.ctx ~slot:0 in
  for k = 0 to (nd * per) - 1 do
    if Sg.search t c k <> Some k then Alcotest.failf "key %d lost" k
  done

let with_tmp_file f =
  let path = Filename.temp_file "paged_store_test" ".pages" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Build on a real file with a cache small enough that eviction writes
   pages back, close, reopen from disk: search, validate, mutate, close,
   reopen again. *)
let test_durability () =
  with_tmp_file (fun path ->
      let n = 3000 in
      let store = Paged_int.create_file ~cache_pages:64 path in
      let t = Sg.create ~order:4 ~store () in
      let c = Sg.ctx ~slot:0 in
      for k = 0 to n - 1 do
        ignore (Sg.insert t c k (k * 3))
      done;
      for k = 0 to n - 1 do
        if k mod 3 = 0 then ignore (Sg.delete t c k)
      done;
      Alcotest.(check bool) "eviction wrote pages back" true
        ((Paged_int.io_stats store).Stats.inline_writebacks > 0);
      Sg.flush t;
      Paged_int.close store;
      (* first reopen: everything must come back from disk *)
      let store = Paged_int.open_file ~cache_pages:64 path in
      let t = Sg.open_existing store in
      check_valid t "after reopen";
      for k = 0 to n - 1 do
        let expect = if k mod 3 = 0 then None else Some (k * 3) in
        if Sg.search t c k <> expect then Alcotest.failf "key %d wrong after reopen" k
      done;
      (* the store must still be writable: new inserts reuse freed pages *)
      let freed_before = Paged_int.total_freed store in
      for k = n to n + 499 do
        ignore (Sg.insert t c k k)
      done;
      ignore freed_before;
      Sg.flush t;
      Paged_int.close store;
      (* second reopen: the mutation survived too *)
      let store = Paged_int.open_file path in
      let t = Sg.open_existing store in
      check_valid t "after second reopen";
      for k = n to n + 499 do
        if Sg.search t c k <> Some k then Alcotest.failf "new key %d lost" k
      done;
      Paged_int.close store)

(* The free list must survive reopen: release pages, flush, reopen, and
   the allocator hands the same ids back before growing the file. *)
let test_free_list_survives_reopen () =
  with_tmp_file (fun path ->
      let s = Paged_int.create_file path in
      let p1 = Paged_int.alloc s (mk_leaf [ 1 ]) in
      let p2 = Paged_int.alloc s (mk_leaf [ 2 ]) in
      let p3 = Paged_int.alloc s (mk_leaf [ 3 ]) in
      Paged_int.release s p2;
      Paged_int.close s;
      let s = Paged_int.open_file path in
      Alcotest.(check int) "live count" 2 (Paged_int.live_count s);
      Alcotest.(check int) "contents p1" 1 (Paged_int.get s p1).Node.keys.(0);
      Alcotest.(check int) "contents p3" 3 (Paged_int.get s p3).Node.keys.(0);
      (match Paged_int.get s p2 with
      | exception Page_store.Freed_page _ -> ()
      | _ -> Alcotest.fail "freed page still readable after reopen");
      let q = Paged_int.reserve s in
      Alcotest.(check int) "freed id recycled first" p2 q;
      (* the recycled page carries free-chain bytes on disk, not a node:
         it must stay unreadable until its first put *)
      (match Paged_int.get s q with
      | exception Page_store.Freed_page _ -> ()
      | _ -> Alcotest.fail "recycled page readable before first put after reopen");
      Paged_int.put s q (mk_leaf [ 4 ]);
      Alcotest.(check int) "recycled page readable after put" 4
        (Paged_int.get s q).Node.keys.(0);
      Paged_int.close s)

(* Fault storm: a store far bigger than the cache, four domains reading
   disjoint quarters — nearly every get is a disk fault. Checks that
   every fault returns the right contents, that the misses spread over
   all IO stripes, and that faults on distinct stripes actually
   overlapped in time (the max_concurrent_faults gauge — with a global
   IO lock it could never exceed 1). The gauge samples short in-flight
   windows (one page read and one decode), so the storm runs enough
   rounds for an overlap to show on a two-core machine. *)
let test_fault_storm () =
  let npages = 2048 and nd = 4 and rounds = 16 in
  let s = Paged_int.create_memory ~cache_pages:16 ~stripes:8 () in
  let pages = Array.init npages (fun i -> Paged_int.alloc s (mk_leaf [ i * 7 ])) in
  Paged_int.sync s;
  let errors = Atomic.make 0 in
  let quarter = npages / nd in
  let domains =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              for j = 0 to quarter - 1 do
                let i = (d * quarter) + j in
                match Paged_int.get s pages.(i) with
                | n -> if n.Node.keys.(0) <> i * 7 then Atomic.incr errors
                | exception _ -> Atomic.incr errors
              done
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no failed or wrong faults" 0 (Atomic.get errors);
  let io = Paged_int.io_stats s in
  Alcotest.(check bool) "storm actually faulted"
    true
    (io.Repro_storage.Stats.faults > npages);
  Alcotest.(check int) "stripes" 8 (Paged_int.stripe_count s);
  Array.iteri
    (fun si f ->
      if f = 0 then Alcotest.failf "stripe %d served no faults" si)
    (Paged_int.per_stripe_faults s);
  Alcotest.(check bool) "faults on distinct stripes overlapped" true
    (io.Repro_storage.Stats.max_concurrent_faults >= 2)

(* Eviction write-back racing the release → reserve → put recycle path: a
   tiny cache keeps the clock sweep running while every domain churns
   alloc / rewrite / release, so freed pages are constantly re-tenanted
   while the evictor may be mid-sweep on them. A page whose dirty bit is
   clobbered gets dropped without write-back and re-faults stale — the
   content checks below catch exactly that. *)
let test_recycle_eviction_churn () =
  let s = Paged_int.create_memory ~cache_pages:8 () in
  let nd = 4 and per = 1500 in
  let keep = 8 in
  let stale = Atomic.make 0 and lost = Atomic.make 0 in
  let check_page q w =
    match Paged_int.get s q with
    | n -> if n.Node.keys.(0) <> w then Atomic.incr stale
    | exception Page_store.Freed_page _ -> Atomic.incr lost
  in
  let domains =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            let live = Queue.create () in
            for i = 0 to per - 1 do
              let v = (d * per) + i in
              let p = Paged_int.alloc s (mk_leaf [ v ]) in
              (* rewrite so the final version only exists via the dirty
                 bit until written back *)
              Paged_int.put s p (mk_leaf [ v + 1 ]);
              Queue.push (p, v + 1) live;
              if Queue.length live > keep then begin
                let q, w = Queue.pop live in
                check_page q w;
                Paged_int.release s q
              end
            done;
            Queue.iter (fun (q, w) -> check_page q w) live))
  in
  Array.iter Domain.join domains;
  if Atomic.get stale > 0 || Atomic.get lost > 0 then
    Alcotest.failf "stale=%d lost=%d pages" (Atomic.get stale) (Atomic.get lost);
  Alcotest.(check int) "resident count consistent" (nd * keep)
    (Paged_int.live_count s)

(* A failed eviction write-back must not drop its victim: the withdrawn
   entry goes back into its slot, still dirty. Puts on a one-stripe,
   8-page cache run until the armed eviction error surfaces. Every page
   must then read back its last put without a single fault — the victim
   was never on disk, so only its slot can serve it — and a sync must
   still make it durable. *)
let test_failed_eviction_keeps_victim () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:512 () in
  let lfile =
    Paged_file.create_shadow ~page_size:(Wal.log_page_size ~data_page_size:512) ()
  in
  let s = Paged_int.create_on ~cache_pages:8 ~stripes:1 ~wal:lfile pfile in
  let pages = ref [] in
  Failpoint.set "paged_store.evict" (Failpoint.Error { every = 1 });
  (match
     for i = 0 to 63 do
       let p = Paged_int.reserve s in
       pages := (p, i) :: !pages;
       Paged_int.put s p (mk_leaf [ i ])
     done
   with
   | () -> Alcotest.fail "injected eviction error never surfaced"
   | exception Failpoint.Injected _ -> ());
  Failpoint.set "paged_store.evict" Failpoint.Off;
  let check_all what s =
    List.iter
      (fun (p, i) ->
        match Paged_int.get s p with
        | n ->
            if n.Node.keys.(0) <> i then
              Alcotest.failf "%s: page %d holds %d, last put %d" what p
                n.Node.keys.(0) i
        | exception Page_store.Freed_page _ ->
            Alcotest.failf "%s: page %d dropped" what p)
      !pages
  in
  let f0 = (Paged_int.io_stats s).Stats.faults in
  check_all "after the failed eviction" s;
  Alcotest.(check int) "served from the cache" f0
    (Paged_int.io_stats s).Stats.faults;
  Paged_int.sync s;
  check_all "crash image after sync"
    (Paged_int.open_from ~cache_pages:8 ~wal:(Paged_file.crash_image lfile)
       (Paged_file.crash_image pfile));
  Failpoint.reset ()

let test_corrupt_rejected () =
  with_tmp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.make 8192 'x');
      close_out oc;
      match Paged_int.open_file path with
      | exception Paged_store.Corrupt _ -> ()
      | _ -> Alcotest.fail "garbage file must be rejected")

(* A cold fault reads into its stripe's IO buffer and decodes from
   there: N faults must allocate fewer than N pages' worth of bytes,
   which one page-sized copy per fault would already exceed. *)
let test_fault_allocates_no_page () =
  let s = Paged_int.create_memory ~page_size:4096 ~cache_pages:8 () in
  let npages = 512 in
  let pages = Array.init npages (fun i -> Paged_int.alloc s (mk_leaf [ i ])) in
  Paged_int.sync s;
  let f0 = (Paged_int.io_stats s).Stats.faults in
  let wrong = ref 0 in
  let a0 = Gc.allocated_bytes () in
  Array.iteri
    (fun i p -> if (Paged_int.get s p).Node.keys.(0) <> i then incr wrong)
    pages;
  let allocated = Gc.allocated_bytes () -. a0 in
  let faults = (Paged_int.io_stats s).Stats.faults - f0 in
  Alcotest.(check int) "every fault decoded the right page" 0 !wrong;
  Alcotest.(check bool) "nearly every get faulted" true (faults > npages - 16);
  if allocated >= float_of_int (faults * Paged_int.page_size s) then
    Alcotest.failf "%d faults allocated %.0f bytes (>= %d per fault)" faults
      allocated (Paged_int.page_size s)

(* A write-back overwrites its page whole: writing pages that were never
   read (fresh allocations pushed out by eviction, then [sync]) must not
   read anything from the data file first. The group commit before the
   checkpoint does read the evicted pages back, to log their images, so
   it runs on its own and only the checkpoint's write-back is counted. *)
let test_writeback_reads_nothing () =
  let s = Paged_int.create_memory ~cache_pages:8 () in
  for i = 0 to 255 do
    ignore (Paged_int.alloc s (mk_leaf [ i ]))
  done;
  Alcotest.(check int) "eviction write-back read nothing" 0
    (Paged_int.pool_stats s).Buffer_pool.misses;
  Paged_int.commit s;
  let logged = (Paged_int.pool_stats s).Buffer_pool.misses in
  Paged_int.sync s;
  let st = Paged_int.pool_stats s in
  Alcotest.(check bool) "pages were written" true (st.Buffer_pool.writebacks >= 256);
  Alcotest.(check int) "no data-page reads" logged st.Buffer_pool.misses

(* A shipped image must win over every earlier read of its page: fault
   the page, evict it, fault it again, then install a replicated image
   and read it back. A second page cache holding the old bytes would
   serve them here. *)
let test_replicated_image_after_refault () =
  let module Codec = Page_codec.Make (Key.Int) in
  let s = Paged_int.create_memory ~cache_pages:8 ~stripes:1 () in
  let pages = Array.init 64 (fun i -> Paged_int.alloc s (mk_leaf [ i ])) in
  Paged_int.sync s;
  let p = pages.(0) in
  let faults () = (Paged_int.io_stats s).Stats.faults in
  let touch_others () =
    Array.iteri (fun i q -> if i > 0 then ignore (Paged_int.get s q)) pages
  in
  ignore (Paged_int.get s p);
  touch_others ();
  let f0 = faults () in
  Alcotest.(check int) "page read back" 0 (Paged_int.get s p).Node.keys.(0);
  Alcotest.(check int) "evicted, then faulted again" (f0 + 1) (faults ());
  let frame = Codec.to_bytes (mk_leaf [ 999 ]) in
  let img = Bytes.make (Paged_int.page_size s) '\000' in
  Bytes.blit frame 0 img 0 (Bytes.length frame);
  Paged_int.apply_replicated s ~images:[ (p, img) ] ~meta:None;
  touch_others ();
  Alcotest.(check int) "shipped image served" 999 (Paged_int.get s p).Node.keys.(0)

let suite =
  Mem.suite @ Disk.suite
  @ [
      Alcotest.test_case "disk: small cache, concurrent" `Quick
        test_small_cache_concurrent;
      Alcotest.test_case "disk: durability across reopen" `Quick test_durability;
      Alcotest.test_case "disk: free list survives reopen" `Quick
        test_free_list_survives_reopen;
      Alcotest.test_case "disk: fault storm across stripes" `Quick
        test_fault_storm;
      Alcotest.test_case "disk: recycle vs eviction churn" `Quick
        test_recycle_eviction_churn;
      Alcotest.test_case "disk: failed eviction keeps its victim" `Quick
        test_failed_eviction_keeps_victim;
      Alcotest.test_case "disk: corrupt file rejected" `Quick test_corrupt_rejected;
      Alcotest.test_case "disk: cold faults allocate no page each" `Quick
        test_fault_allocates_no_page;
      Alcotest.test_case "disk: write-back reads nothing first" `Quick
        test_writeback_reads_nothing;
      Alcotest.test_case "disk: replicated image wins after re-fault" `Quick
        test_replicated_image_after_refault;
    ]
