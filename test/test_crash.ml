(* Crash-fault injection: the simulated-crash battery (every failpoint
   site × cache size), targeted torn-write and injected-error runs, the
   dual-header fallback regression and short-write retries on a real
   file — plus the CI guarantee that every registered failpoint site was
   actually exercised. *)

open Repro_storage
open Repro_harness

module PS = Paged_store.Make (Key.Int)
module Sg = Repro_core.Sagiv.Make_on_store (Key.Int) (PS)
module V = Repro_core.Validate.Make_on_store (Key.Int) (PS)
module MV = Repro_core.Mvcc.Make_on_store (Key.Int) (PS)

let mk_leaf keys =
  {
    Node.level = 0;
    keys = Array.of_list keys;
    ptrs = Array.of_list keys;
    low = Bound.Neg_inf;
    high = Bound.Pos_inf;
    link = None;
    is_root = false;
    state = Node.Live;
  }

let with_tmp_file f =
  let path = Filename.temp_file "crash_test" ".pages" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let check_valid t msg =
  let r = V.check t in
  if not (Repro_core.Validate.ok r) then
    Alcotest.failf "%s: %s" msg (String.concat "; " r.Repro_core.Validate.errors)

(* ---------- failpoint registry basics ---------- *)

let test_failpoint_registry () =
  Failpoint.reset ();
  (match Failpoint.set "no.such.site" (Failpoint.Error { every = 1 }) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown site must be rejected");
  (match Failpoint.set "paged_file.pwrite" (Failpoint.Error { every = 0 }) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "every = 0 must be rejected");
  let s = Failpoint.site "paged_file.pwrite" in
  Alcotest.(check string) "idempotent registration" "paged_file.pwrite"
    (Failpoint.name s);
  (* Crash_after counts armed hits only *)
  Failpoint.set_site s (Failpoint.Crash_after 3);
  Failpoint.hit s;
  Failpoint.hit s;
  (match Failpoint.hit s with
  | exception Failpoint.Crash name ->
      Alcotest.(check string) "crash names the site" "paged_file.pwrite" name
  | () -> Alcotest.fail "third armed hit must crash");
  Alcotest.(check bool) "crash latches" true (Failpoint.is_crashed ());
  Failpoint.reset ();
  Alcotest.(check bool) "reset clears the latch" false (Failpoint.is_crashed ());
  Failpoint.hit s (* disarmed: must not fire *)

(* ---------- the simulated-crash battery ---------- *)

(* one quick battery, shared by the checks below *)
let quick_battery = lazy (Crash.battery ~quick:true ())

let test_battery () =
  let outcomes = Lazy.force quick_battery in
  Alcotest.(check bool) "battery ran" true (List.length outcomes > 20);
  let crashes = List.filter (fun o -> o.Crash.crashed) outcomes in
  Alcotest.(check bool) "most runs actually crashed" true
    (List.length crashes > List.length outcomes / 2)

(* Every disk configuration the serve command accepts has a crashed run
   in the quick battery with the same shard count and MVCC flag, or is
   named in [uncovered]. A new accepted axis value fails here until the
   battery sweeps it. *)
let test_battery_covers_serve_configs () =
  let uncovered = [ (4, true) ] in
  let crashed = List.filter (fun o -> o.Crash.crashed) (Lazy.force quick_battery) in
  let covered (shards, mvcc) =
    List.exists
      (fun o ->
        let sc = o.Crash.scenario in
        sc.Crash.shards = shards && sc.mvcc = mvcc)
      crashed
  in
  List.iter
    (fun shards ->
      List.iter
        (fun mvcc ->
          match
            Repro_server.Serve_config.validate ~tree:"sagiv" ~backend:"disk"
              ~shards ~mvcc ~path:None
          with
          | Error _ -> ()
          | Ok c ->
              let key = (c.shards, c.mvcc) in
              let name = Printf.sprintf "x%d mvcc=%b" shards mvcc in
              if List.mem key uncovered then
                Alcotest.(check bool) (name ^ " is listed uncovered") false
                  (covered key)
              else
                Alcotest.(check bool) (name ^ " is crash-tested") true
                  (covered key))
        [ false; true ])
    [ 1; 4 ]

(* ---------- dual header slots (regression: sync used to rewrite the
   single header page 0 in place — one torn header bricked the store) *)

let corrupt_page path page =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (page * Paged_file.default_page_size) Unix.SEEK_SET);
  let junk = Bytes.make Paged_file.default_page_size 'x' in
  ignore (Unix.write fd junk 0 (Bytes.length junk));
  Unix.close fd

let build_two_generations path =
  Failpoint.reset ();
  let store =
    PS.create_file ~page_size:Paged_file.default_page_size ~cache_pages:32 path
  in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  for k = 0 to 199 do
    ignore (Sg.insert tree c k (k * 3))
  done;
  Sg.flush tree;
  Sg.flush tree;
  (* both slots committed *)
  PS.close store

let reopen_and_check path msg =
  let store = PS.open_file ~cache_pages:32 path in
  let tree = Sg.open_existing store in
  let c = Sg.ctx ~slot:0 in
  check_valid tree msg;
  for k = 0 to 199 do
    if Sg.search tree c k <> Some (k * 3) then
      Alcotest.failf "%s: key %d lost" msg k
  done;
  PS.close store

let test_header_slot_corruption () =
  with_tmp_file (fun path ->
      build_two_generations path;
      corrupt_page path 0;
      reopen_and_check path "slot 0 corrupted");
  with_tmp_file (fun path ->
      build_two_generations path;
      corrupt_page path 1;
      reopen_and_check path "slot 1 corrupted");
  with_tmp_file (fun path ->
      build_two_generations path;
      corrupt_page path 0;
      corrupt_page path 1;
      match PS.open_file ~cache_pages:32 path with
      | exception Paged_store.Corrupt _ -> ()
      | _ -> Alcotest.fail "both slots corrupted must be rejected")

(* ---------- short writes on a real file: the Unix backend's
   seek+write loop must retry partial transfers until the page lands *)

let test_short_writes_on_file () =
  with_tmp_file (fun path ->
      Failpoint.reset ();
      Failpoint.set "paged_file.pwrite" (Failpoint.Short_write { every = 2 });
      let store = PS.create_file ~cache_pages:8 path in
      let tree = Sg.create ~order:4 ~store () in
      let c = Sg.ctx ~slot:0 in
      for k = 0 to 299 do
        ignore (Sg.insert tree c k (k * 3))
      done;
      Sg.flush tree;
      PS.close store;
      Alcotest.(check bool) "short writes actually injected" true
        (Failpoint.exercised "paged_file.pwrite" > 0);
      Failpoint.reset ();
      let store = PS.open_file ~cache_pages:8 path in
      let tree = Sg.open_existing store in
      let c = Sg.ctx ~slot:0 in
      check_valid tree "after short-write storm";
      for k = 0 to 299 do
        if Sg.search tree c k <> Some (k * 3) then
          Alcotest.failf "key %d lost behind short writes" k
      done;
      PS.close store)

(* ---------- WAL replay edge cases: the redo scanner's boundary
   behaviour, pinned down against the log directly ---------- *)

let data_ps = 512
let log_ps = Wal.log_page_size ~data_page_size:data_ps
let img c = Bytes.make data_ps c

let test_replay_empty_log () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let r = Wal.replay ~data_page_size:data_ps ~gen:3 f in
  Alcotest.(check int) "no records" 0 r.Wal.records;
  Alcotest.(check int) "no batches" 0 r.Wal.batches;
  Alcotest.(check int) "no images" 0 (Hashtbl.length r.Wal.committed);
  Alcotest.(check int) "resume at page 0" 0 r.Wal.next_pos;
  Alcotest.(check int) "lsn restarts" 0 r.Wal.next_lsn

let test_replay_checkpoint_only () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:2 Wal.Checkpoint;
  Wal.fsync w;
  let r = Wal.replay ~data_page_size:data_ps ~gen:2 f in
  Alcotest.(check int) "marker scanned" 1 r.Wal.records;
  Alcotest.(check int) "nothing committed" 0 r.Wal.batches;
  Alcotest.(check int) "nothing promoted" 0 (Hashtbl.length r.Wal.committed);
  Alcotest.(check int) "resume past the marker" 1 r.Wal.next_pos

let test_replay_torn_final_record () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = img 'a' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  (* the final record is a group of its own: a whole data page image
     fills exactly page 2 *)
  Wal.append w ~gen:1 (Wal.Page { ptr = 4; image = img 'b' });
  Wal.fsync w;
  (* tear the final record by hand: garbage over its second half *)
  let page = Paged_file.read f 2 in
  Bytes.fill page (log_ps / 2) (log_ps - (log_ps / 2)) '\xFF';
  Paged_file.write f 2 page;
  let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "scan stops at the tear" 2 r.Wal.records;
  Alcotest.(check int) "the committed batch survives" 1 r.Wal.batches;
  Alcotest.(check bool) "committed image intact" true
    (Hashtbl.find_opt r.Wal.committed 3 = Some (img 'a'));
  Alcotest.(check bool) "torn record not promoted" false
    (Hashtbl.mem r.Wal.committed 4);
  Alcotest.(check int) "resume overwrites the torn record" 2 r.Wal.next_pos

let test_replay_last_writer_wins () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  (* same page twice within a batch, then again in a later batch, then
     once more without a commit — only the last committed image counts *)
  Wal.append w ~gen:1 (Wal.Page { ptr = 7; image = img 'a' });
  Wal.append w ~gen:1 (Wal.Page { ptr = 7; image = img 'b' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.append w ~gen:1 (Wal.Page { ptr = 7; image = img 'c' });
  Wal.append w ~gen:1 (Wal.Page { ptr = 9; image = img 'd' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.append w ~gen:1 (Wal.Page { ptr = 7; image = img 'e' });
  Wal.fsync w;
  let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "two batches" 2 r.Wal.batches;
  Alcotest.(check bool) "last committed writer wins" true
    (Hashtbl.find_opt r.Wal.committed 7 = Some (img 'c'));
  Alcotest.(check bool) "sibling page committed" true
    (Hashtbl.find_opt r.Wal.committed 9 = Some (img 'd'))

(* Regression: the phantom tail. Before the incarnation stamp, [resume]
   continued the same generation with a continuous LSN at the torn
   position — so the stale records of a {e never-acknowledged} batch
   left beyond the tear (its head torn, its tail physically present)
   chained perfectly onto the new pass's appends. A second crash then
   replayed straight through the new records into the stale tail,
   reached the stale COMMIT, and promoted a mixed batch nobody ever
   acknowledged. The incarnation stamp closes it: resume bumps the
   incarnation past everything observed, and replay stops at the first
   regression. This test fails on the old scanner. *)
let test_phantom_tail_two_crash () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = img 'a' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  (* batch 1: acknowledged *)
  Wal.append w ~gen:1 (Wal.Page { ptr = 4; image = img 'b' });
  Wal.append w ~gen:1 (Wal.Page { ptr = 5; image = img 'c' });
  Wal.append w ~gen:1 Wal.Commit;
  (* batch 2: never acknowledged — each PAGE record fills a log page,
     and its group reaches the device (the images on pages 2 and 3, the
     COMMIT on page 4), but the crash lands before the fsync returns *)
  Wal.fsync w;
  (* crash 1: the batch-2 head lands torn; its tail survives as bytes *)
  let page = Paged_file.read f 2 in
  Bytes.fill page (log_ps / 2) (log_ps - (log_ps / 2)) '\xFF';
  Paged_file.write f 2 page;
  let r1 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "first recovery: only the acked batch" 1 r1.Wal.batches;
  Alcotest.(check int) "resume position at the tear" 2 r1.Wal.next_pos;
  (* second life: one new record over the tear, then crash again before
     its commit *)
  let w2 = Wal.resume ~data_page_size:data_ps ~replay:r1 f in
  Wal.append w2 ~gen:1 (Wal.Page { ptr = 6; image = img 'd' });
  Wal.fsync w2;
  (* crash 2: replay must not chain the stale tail (Page 5 + COMMIT)
     onto the new record and promote a batch nobody committed *)
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "second recovery: still only the acked batch" 1
    r2.Wal.batches;
  Alcotest.(check bool) "acked image survives" true
    (Hashtbl.find_opt r2.Wal.committed 3 = Some (img 'a'));
  Alcotest.(check bool) "phantom image not promoted" false
    (Hashtbl.mem r2.Wal.committed 5);
  Alcotest.(check bool) "uncommitted new record not promoted" false
    (Hashtbl.mem r2.Wal.committed 6);
  (* The scan stops at the stale tail (page 3); the valid tail ends
     before life 2's uncommitted record, at the last COMMIT, so the
     next life overwrites that record instead of promoting it. *)
  Alcotest.(check int) "scan stops at the stale tail" 3 r2.Wal.records;
  Alcotest.(check int) "valid tail ends at the last COMMIT" 2 r2.Wal.next_pos

(* The same two-crash shape with the stale COMMIT {e directly} after the
   resumed tail: accepting that one record would promote the new pass's
   uncommitted record as a batch. *)
let test_phantom_commit_after_tail () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = img 'a' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  Wal.append w ~gen:1 (Wal.Page { ptr = 4; image = img 'b' });
  Wal.append w ~gen:1 Wal.Commit;
  (* unacked: its pages reach the device (PAGE on page 2, the COMMIT on
     page 3), but the crash lands before the fsync returns *)
  Wal.fsync w;
  let page = Paged_file.read f 2 in
  Bytes.fill page 8 (log_ps - 8) '\x00';
  Paged_file.write f 2 page;
  let r1 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "tear stops the first recovery" 2 r1.Wal.next_pos;
  let w2 = Wal.resume ~data_page_size:data_ps ~replay:r1 f in
  Wal.append w2 ~gen:1 (Wal.Page { ptr = 6; image = img 'd' });
  Wal.fsync w2;
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "stale COMMIT right after the tail rejected" 1
    r2.Wal.batches;
  Alcotest.(check bool) "uncommitted record not promoted" false
    (Hashtbl.mem r2.Wal.committed 6)

(* Resume lands the first new record exactly on the torn position; after
   a proper commit the next recovery promotes both passes' batches. *)
let test_resume_overwrites_torn_position () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = img 'a' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  Wal.append w ~gen:1 (Wal.Page { ptr = 4; image = img 'b' });
  Wal.fsync w;
  let page = Paged_file.read f 2 in
  Bytes.fill page (log_ps / 2) (log_ps - (log_ps / 2)) '\xFF';
  Paged_file.write f 2 page;
  let r1 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "resume at the torn record" 2 r1.Wal.next_pos;
  let w2 = Wal.resume ~data_page_size:data_ps ~replay:r1 f in
  Alcotest.(check int) "incarnation bumped" 1 (Wal.incarnation w2);
  Wal.append w2 ~gen:1 (Wal.Page { ptr = 6; image = img 'd' });
  Wal.append w2 ~gen:1 Wal.Commit;
  Wal.fsync w2;
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "both passes' batches promoted" 2 r2.Wal.batches;
  Alcotest.(check bool) "old batch intact" true
    (Hashtbl.find_opt r2.Wal.committed 3 = Some (img 'a'));
  Alcotest.(check bool) "new batch intact" true
    (Hashtbl.find_opt r2.Wal.committed 6 = Some (img 'd'));
  Alcotest.(check int) "scan covers the new tail" 4 r2.Wal.next_pos

(* Empty-log resume round-trip: replaying nothing must hand back a
   resumable cursor at LSN 0 / page 0, and the resumed log must behave
   exactly like a fresh one. *)
let test_resume_empty_log_roundtrip () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "empty replay: lsn 0" 0 r.Wal.next_lsn;
  let w = Wal.resume ~data_page_size:data_ps ~replay:r f in
  Alcotest.(check int) "resumed cursor at page 0" 0 (Wal.cursor w);
  Alcotest.(check int) "resumed lsn 0" 0 (Wal.next_lsn w);
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = img 'a' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "one batch after the round-trip" 1 r2.Wal.batches;
  Alcotest.(check bool) "image committed" true
    (Hashtbl.find_opt r2.Wal.committed 3 = Some (img 'a'));
  Alcotest.(check int) "lsn continues" 2 r2.Wal.next_lsn

(* The store-header incarnation floor: resume must bump past it even
   when replay itself observed nothing (an empty or fully-torn pass may
   still leave stale records, stamped with the header's incarnation,
   beyond the tail). *)
let test_resume_incarnation_floor () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  let w = Wal.resume ~incarnation:5 ~data_page_size:data_ps ~replay:r f in
  Alcotest.(check int) "floor wins over the (empty) observation" 5
    (Wal.incarnation w)

(* ---------- WAL record checksum range: header + body_len bytes ---------- *)

(* A codec-frame-sized body, well short of one data page. *)
let short_body = Bytes.init 37 (fun i -> Char.chr (0x41 + i))

let zero_padded body =
  let page = Bytes.make data_ps '\000' in
  Bytes.blit body 0 page 0 (Bytes.length body);
  page

(* A page-per-record log: one fsync per record, and each fsync starts
   a fresh log page, so every record sits alone at the front of its
   page with zero padding after it — the layout logs had before records
   were packed. *)
let log_short_page_batch () =
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = short_body });
  Wal.fsync w;
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  Alcotest.(check int) "one log page per record" 2 (Paged_file.pages f);
  (f, w)

let test_short_page_record_padded () =
  Failpoint.reset ();
  let f, w = log_short_page_batch () in
  let rec0 = Paged_file.read f 0 in
  let stored = Int32.to_int (Bytes.get_int32_le rec0 40) land 0xFFFFFFFF in
  Bytes.set_int32_le rec0 40 0l;
  Alcotest.(check int) "record flagged with the word-at-a-time checksum" 1
    (Bytes.get_uint8 rec0 5);
  Alcotest.(check int) "checksum covers header + body only"
    (Repro_util.Checksum.mx32 rec0 ~pos:0
       ~len:(Wal.header_bytes + Bytes.length short_body))
    stored;
  let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "one batch" 1 r.Wal.batches;
  Alcotest.(check bool) "replay pads the body to one data page" true
    (Hashtbl.find_opt r.Wal.committed 3 = Some (zero_padded short_body));
  (* the replica path: shipped raw log pages through Wal.Apply *)
  let pages =
    match Wal.fetch_from w ~lsn:0 ~max_pages:8 with
    | Wal.Pages { pages; next } ->
        Alcotest.(check int) "both records shipped" 2 next;
        pages
    | Wal.At_end | Wal.Stale -> Alcotest.fail "durable records not fetchable"
  in
  List.iter
    (fun p -> Alcotest.(check int) "shipped as whole log pages" log_ps (Bytes.length p))
    pages;
  let a = Wal.Apply.create ~data_page_size:data_ps () in
  match List.map (Wal.Apply.step a) pages with
  | [ Wal.Apply.Progress; Wal.Apply.Batch b ] ->
      Alcotest.(check bool) "Apply pads the body to one data page" true
        (b.Wal.Apply.b_images = [ (3, zero_padded short_body) ])
  | _ -> Alcotest.fail "want PAGE staged, then COMMIT promoting it"

let tear_from f idx off =
  let page = Paged_file.read f idx in
  Bytes.fill page off (log_ps - off) '\xFF';
  Paged_file.write f idx page

let test_tear_past_body_keeps_record () =
  Failpoint.reset ();
  let f, _ = log_short_page_batch () in
  tear_from f 0 (Wal.header_bytes + Bytes.length short_body);
  tear_from f 1 Wal.header_bytes;
  let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "both records valid" 2 r.Wal.records;
  Alcotest.(check int) "the batch survives" 1 r.Wal.batches;
  Alcotest.(check bool) "bytes past body_len never read" true
    (Hashtbl.find_opt r.Wal.committed 3 = Some (zero_padded short_body))

let test_tear_inside_record_stops_scan () =
  List.iter
    (fun (what, off) ->
      Failpoint.reset ();
      let f, _ = log_short_page_batch () in
      tear_from f 0 off;
      let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
      Alcotest.(check int) (what ^ ": no record accepted") 0 r.Wal.records;
      Alcotest.(check int) (what ^ ": resume at the tear") 0 r.Wal.next_pos)
    [
      ("tear over body_len", 32);
      ("tear in the header", 44);
      ("tear in the body", Wal.header_bytes + Bytes.length short_body - 1);
    ]

(* A record of a page-per-record log, alone on its log page with zero
   padding after it (layout in wal.ml), checksummed with FNV-1a-32 and
   its checksum-kind byte left 0, as logs before the word-at-a-time
   checksum were. [whole_page] (the default) puts the checksum over the
   whole log page, as logs before the header + body range did;
   otherwise over header + body. *)
let legacy_record ?(whole_page = true) ~kind ~lsn ~ptr body =
  let page = Bytes.make log_ps '\000' in
  Bytes.set_int32_le page 0 0x53_47_57_4Cl;
  Bytes.set_uint8 page 4 kind;
  Bytes.set_int64_le page 8 (Int64.of_int lsn);
  Bytes.set_int64_le page 16 1L;
  Bytes.set_int64_le page 24 (Int64.of_int ptr);
  Bytes.set_int32_le page 32 (Int32.of_int (Bytes.length body));
  Bytes.blit body 0 page Wal.header_bytes (Bytes.length body);
  let len = if whole_page then log_ps else Wal.header_bytes + Bytes.length body in
  Bytes.set_int32_le page 40
    (Int32.of_int (Repro_util.Checksum.fnv32 page ~pos:0 ~len));
  page

let test_legacy_whole_page_checksum () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let meta = Bytes.of_string "legacy meta" in
  List.iter
    (fun page -> ignore (Paged_file.append f page))
    [
      legacy_record ~kind:1 ~lsn:0 ~ptr:3 (img 'a');
      legacy_record ~kind:4 ~lsn:1 ~ptr:(-1) meta;
      legacy_record ~kind:2 ~lsn:2 ~ptr:(-1) Bytes.empty;
    ];
  let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "every legacy record accepted" 3 r.Wal.records;
  Alcotest.(check int) "legacy batch promoted" 1 r.Wal.batches;
  Alcotest.(check bool) "legacy image intact" true
    (Hashtbl.find_opt r.Wal.committed 3 = Some (img 'a'));
  Alcotest.(check bool) "legacy meta intact" true (r.Wal.committed_meta = Some meta)

(* ---------- the packed layout: records back to back, one run of whole
   log pages per group commit ---------- *)

(* Every shipped page of [w] from [lsn] on, in one list. *)
let fetch_all w ~lsn =
  match Wal.fetch_from w ~lsn ~max_pages:1_000 with
  | Wal.Pages { pages; _ } -> pages
  | Wal.At_end -> []
  | Wal.Stale -> Alcotest.fail "durable records fell out of the window"

let test_commit_writes_whole_pages () =
  Failpoint.reset ();
  let data_page_size = 4096 in
  let f =
    Paged_file.create_memory ~page_size:(Wal.log_page_size ~data_page_size) ()
  in
  let w = Wal.create ~data_page_size f in
  for p = 0 to 7 do
    Wal.append w ~gen:1 (Wal.Page { ptr = p; image = Bytes.make 550 'x' })
  done;
  Wal.append w ~gen:1 Wal.Commit;
  Alcotest.(check int) "nothing written before the fsync" 0
    (Wal.bytes_written w);
  Wal.fsync w;
  Alcotest.(check int) "9 records appended" 9 (Wal.appended w);
  Alcotest.(check int) "8 x 614 B + 64 B packed into exactly 2 log pages" 8320
    (Wal.bytes_written w);
  Alcotest.(check int) "both pages in one write call" 1 (Wal.writes w);
  Alcotest.(check int) "the next group starts a fresh page" 2 (Wal.cursor w);
  let r = Wal.replay ~data_page_size ~gen:1 f in
  Alcotest.(check int) "the batch replays" 8 (Hashtbl.length r.Wal.committed);
  (* the store reports the same device bytes *)
  let store = PS.create_memory () in
  for k = 0 to 7 do
    ignore (PS.alloc store (mk_leaf [ k ]))
  done;
  PS.commit store;
  let io = PS.io_stats store in
  let lps = Wal.log_page_size ~data_page_size:(PS.page_size store) in
  Alcotest.(check bool) "io.wal_bytes counts whole log pages" true
    (io.Stats.wal_bytes > 0 && io.Stats.wal_bytes mod lps = 0);
  Alcotest.(check bool) "fewer log pages than records" true
    (io.Stats.wal_bytes < io.Stats.wal_records * lps)

(* An open group's pages wait in memory; one that outgrows
   [Wal.run_bytes] has sent its head to the device and keeps its tail.
   [fetch_from] and [truncate] read through both and give the same bytes
   as a log whose group was written. *)
let test_unwritten_group_reads () =
  Failpoint.reset ();
  let n = (Wal.run_bytes / log_ps) + 10 in
  let log ~fsync =
    let f = Paged_file.create_memory ~page_size:log_ps () in
    let w = Wal.create ~data_page_size:data_ps f in
    Wal.append w ~gen:1 (Wal.Page { ptr = 1; image = Bytes.make 100 'a' });
    Wal.append w ~gen:1 Wal.Commit;
    Wal.fsync w;
    (* records of three lengths, so they straddle page boundaries *)
    for p = 0 to n - 1 do
      let image = Bytes.make (data_ps - (8 * (p mod 3))) (Char.chr (65 + (p mod 26))) in
      Wal.append w ~gen:1 (Wal.Page { ptr = 10 + p; image })
    done;
    Wal.append w ~gen:1 Wal.Commit;
    if fsync then Wal.fsync w;
    w
  in
  let opened = log ~fsync:false and written = log ~fsync:true in
  Alcotest.(check int) "the first group, then one early run" 2 (Wal.writes opened);
  Alcotest.(check bool) "part of the open group is on the device" true
    (Wal.bytes_written opened > log_ps
    && Wal.bytes_written opened < Wal.bytes_written written);
  let fetch w ~max_pages =
    match Wal.fetch_from w ~lsn:0 ~max_pages with
    | Wal.Pages { pages; _ } -> pages
    | Wal.At_end | Wal.Stale -> Alcotest.fail "nothing to fetch"
  in
  Alcotest.(check (list bytes)) "fetch_from over the live pass"
    (fetch written ~max_pages:2) (fetch opened ~max_pages:1000);
  List.iter
    (fun w ->
      Wal.append w ~gen:1 Wal.Checkpoint;
      Wal.truncate w)
    [ opened; written ];
  let sealed = fetch opened ~max_pages:1000 in
  Alcotest.(check int) "every record sealed" (n + 4) (List.length sealed);
  Alcotest.(check (list bytes)) "truncate seals the same pages"
    (fetch written ~max_pages:1000) sealed

(* A 3-page group whose middle page never landed: it still holds the
   previous pass's bytes. Replay must stop inside the group, before its
   COMMIT, and resume on the group's first page, so the records on that
   page (staged, never promoted) are overwritten, not chained. *)
let test_stale_middle_page () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  (* pass 1 (generation 1) fills pages 0..6 *)
  for p = 0 to 9 do
    Wal.append w ~gen:1 (Wal.Page { ptr = 100 + p; image = Bytes.make 300 'o' })
  done;
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  Wal.append w ~gen:1 Wal.Checkpoint;
  Wal.truncate w;
  (* pass 2: batch A on page 0 *)
  Wal.append w ~gen:2 (Wal.Page { ptr = 1; image = Bytes.make 100 'a' });
  Wal.append w ~gen:2 Wal.Commit;
  Wal.fsync w;
  let stale = Paged_file.read f 2 in
  (* batch B: 6 x 264 B + 64 B = 1648 B, pages 1..3 *)
  for i = 0 to 5 do
    Wal.append w ~gen:2 (Wal.Page { ptr = 10 + i; image = Bytes.make 200 'b' })
  done;
  Wal.append w ~gen:2 Wal.Commit;
  Wal.fsync w;
  Alcotest.(check int) "batch B spans pages 1..3" 4 (Wal.cursor w);
  Paged_file.write f 2 stale;
  let r = Wal.replay ~data_page_size:data_ps ~gen:2 f in
  Alcotest.(check int) "A promoted, B stopped before its COMMIT" 1 r.Wal.batches;
  Alcotest.(check int) "B's first-page records were scanned" 4 r.Wal.records;
  Alcotest.(check (list int)) "only A's image" [ 1 ]
    (Hashtbl.fold (fun p _ acc -> p :: acc) r.Wal.committed []);
  Alcotest.(check int) "resume on B's first page" 1 r.Wal.next_pos;
  let w2 = Wal.resume ~data_page_size:data_ps ~replay:r f in
  Alcotest.(check int) "resumed cursor" 1 (Wal.cursor w2);
  Wal.append w2 ~gen:2 (Wal.Page { ptr = 20; image = Bytes.make 100 'c' });
  Wal.append w2 ~gen:2 Wal.Commit;
  Wal.fsync w2;
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:2 f in
  Alcotest.(check int) "A and the new batch" 2 r2.Wal.batches;
  Alcotest.(check (list int)) "B's staged records never promoted" [ 1; 20 ]
    (List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) r2.Wal.committed []))

(* A record crossing a page boundary, torn on either side of it. *)
let test_tear_across_page_boundary () =
  List.iter
    (fun (what, page, off, len) ->
      Failpoint.reset ();
      let f = Paged_file.create_memory ~page_size:log_ps () in
      let w = Wal.create ~data_page_size:data_ps f in
      Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = Bytes.make 100 'a' });
      Wal.append w ~gen:1 Wal.Commit;
      Wal.fsync w;
      (* 464 B at offset 0 of page 1, then 464 B from offset 464: the
         second record crosses into page 2 *)
      Wal.append w ~gen:1 (Wal.Page { ptr = 5; image = Bytes.make 400 'b' });
      Wal.append w ~gen:1 (Wal.Page { ptr = 6; image = Bytes.make 400 'c' });
      Wal.append w ~gen:1 Wal.Commit;
      Wal.fsync w;
      let p = Paged_file.read f page in
      Bytes.fill p off len '\xFF';
      Paged_file.write f page p;
      let r = Wal.replay ~data_page_size:data_ps ~gen:1 f in
      Alcotest.(check int) (what ^ ": first batch only") 1 r.Wal.batches;
      Alcotest.(check int) (what ^ ": scan stops at the crossing record") 3
        r.Wal.records;
      Alcotest.(check bool) (what ^ ": torn batch not promoted") false
        (Hashtbl.mem r.Wal.committed 5 || Hashtbl.mem r.Wal.committed 6);
      Alcotest.(check int) (what ^ ": resume on the torn group's page") 1
        r.Wal.next_pos)
    [
      ("head half torn", 1, 500, log_ps - 500);
      ("tail half torn", 2, 0, 100);
    ]

(* A group that continues past a settled record on the same page — a
   CHECKPOINT marker left by a failed checkpoint, then a batch — and
   tears after it. The valid tail ends mid-page; resume must clear the
   torn remains after it, or the next replay stops there and loses the
   resumed log's committed batches. *)
let test_resume_clears_interrupted_group () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = Bytes.make 100 'a' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.append w ~gen:1 Wal.Checkpoint;
  Wal.append w ~gen:1 (Wal.Page { ptr = 4; image = Bytes.make 100 'b' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  (* tear the second PAGE record's body: offsets 0, 164, 228, 292 *)
  tear_from f 0 300;
  let r1 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "first batch promoted" 1 r1.Wal.batches;
  Alcotest.(check int) "valid tail ends after the marker" 292 r1.Wal.tail_end;
  let w2 = Wal.resume ~data_page_size:data_ps ~replay:r1 f in
  Wal.append w2 ~gen:1 (Wal.Page { ptr = 7; image = Bytes.make 100 'c' });
  Wal.append w2 ~gen:1 Wal.Commit;
  Wal.fsync w2;
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "the resumed batch is reached" 2 r2.Wal.batches;
  Alcotest.(check bool) "new image committed" true (Hashtbl.mem r2.Wal.committed 7);
  Alcotest.(check bool) "torn image never promoted" false
    (Hashtbl.mem r2.Wal.committed 4)

(* Regression: a record a crashed life logged but never committed must
   not be promoted by the next life's first COMMIT. *)
let test_uncommitted_tail_not_chained () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = img 'a' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  (* the crashed batch: its first record landed, its COMMIT did not *)
  Wal.append w ~gen:1 (Wal.Page { ptr = 4; image = img 'b' });
  Wal.fsync w;
  let r1 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "the orphan is scanned" 3 r1.Wal.records;
  Alcotest.(check int) "but not part of the valid tail" 2 r1.Wal.next_lsn;
  let w2 = Wal.resume ~data_page_size:data_ps ~replay:r1 f in
  Wal.append w2 ~gen:1 (Wal.Page { ptr = 6; image = img 'd' });
  Wal.append w2 ~gen:1 Wal.Commit;
  Wal.fsync w2;
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "both lives' batches" 2 r2.Wal.batches;
  Alcotest.(check bool) "new batch promoted" true (Hashtbl.mem r2.Wal.committed 6);
  Alcotest.(check bool) "orphan never promoted" false (Hashtbl.mem r2.Wal.committed 4)

(* Sealing changes where a record lives, not what is shipped. *)
let test_fetch_identical_across_seal () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let w = Wal.create ~data_page_size:data_ps f in
  List.iter
    (fun sizes ->
      List.iteri
        (fun i n ->
          Wal.append w ~gen:1 (Wal.Page { ptr = i; image = Bytes.make n 'p' }))
        sizes;
      Wal.append w ~gen:1 (Wal.Meta (Bytes.of_string "m"));
      Wal.append w ~gen:1 Wal.Commit;
      Wal.fsync w)
    [ [ 37; 512; 300 ]; [ 200; 200; 200; 200 ]; [ 511 ] ];
  let live = fetch_all w ~lsn:2 in
  Alcotest.(check int) "every durable record from LSN 2" 12 (List.length live);
  List.iter
    (fun p -> Alcotest.(check int) "one log page per record" log_ps (Bytes.length p))
    live;
  Wal.append w ~gen:1 Wal.Checkpoint;
  Wal.truncate w;
  Alcotest.(check int) "pass sealed" 1 (Wal.segment_count w);
  let sealed = fetch_all w ~lsn:2 in
  Alcotest.(check int) "sealed range adds the marker" 13 (List.length sealed);
  Alcotest.(check bool) "byte-identical pages before and after the seal" true
    (List.for_all2 Bytes.equal live (List.filteri (fun i _ -> i < 12) sealed));
  let a = Wal.Apply.create ~data_page_size:data_ps () in
  let batches =
    List.length
      (List.filter
         (fun p -> match Wal.Apply.step a p with Wal.Apply.Batch _ -> true | _ -> false)
         (fetch_all w ~lsn:0))
  in
  Alcotest.(check int) "the sealed stream applies" 3 batches

(* A page-per-record log (both checksum ranges) resumed with packed
   groups: replay reads both as one pass, and a follower fed through the
   resumed log's fetch_from reaches the same images. *)
let test_legacy_log_resumes_packed () =
  Failpoint.reset ();
  let f = Paged_file.create_memory ~page_size:log_ps () in
  let meta = Bytes.of_string "legacy meta" in
  List.iter
    (fun page -> ignore (Paged_file.append f page))
    [
      legacy_record ~kind:1 ~lsn:0 ~ptr:3 (img 'a');
      legacy_record ~whole_page:false ~kind:4 ~lsn:1 ~ptr:(-1) meta;
      legacy_record ~whole_page:false ~kind:2 ~lsn:2 ~ptr:(-1) Bytes.empty;
      legacy_record ~whole_page:false ~kind:1 ~lsn:3 ~ptr:4 short_body;
      legacy_record ~kind:2 ~lsn:4 ~ptr:(-1) Bytes.empty;
    ];
  let r1 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "legacy records accepted" 5 r1.Wal.records;
  Alcotest.(check int) "legacy batches" 2 r1.Wal.batches;
  Alcotest.(check int) "resume after the legacy tail" 5 r1.Wal.next_pos;
  let w = Wal.resume ~data_page_size:data_ps ~replay:r1 f in
  Wal.append w ~gen:1 (Wal.Page { ptr = 5; image = short_body });
  Wal.append w ~gen:1 (Wal.Page { ptr = 3; image = Bytes.make 300 'z' });
  Wal.append w ~gen:1 Wal.Commit;
  Wal.fsync w;
  Alcotest.(check int) "the packed group fills one page" 6 (Wal.cursor w);
  let r2 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "legacy and packed records, one pass" 8 r2.Wal.records;
  Alcotest.(check int) "three batches" 3 r2.Wal.batches;
  Alcotest.(check bool) "legacy meta intact" true (r2.Wal.committed_meta = Some meta);
  Alcotest.(check bool) "packed image wins over the legacy one" true
    (Hashtbl.find_opt r2.Wal.committed 3 = Some (zero_padded (Bytes.make 300 'z')));
  let a = Wal.Apply.create ~data_page_size:data_ps () in
  let follower = Hashtbl.create 8 in
  List.iter
    (fun p ->
      match Wal.Apply.step a p with
      | Wal.Apply.Batch b ->
          List.iter (fun (q, img) -> Hashtbl.replace follower q img) b.Wal.Apply.b_images
      | Wal.Apply.Progress -> ()
      | Wal.Apply.Reject m -> Alcotest.failf "shipped page rejected: %s" m)
    (fetch_all w ~lsn:0);
  Alcotest.(check int) "follower applied every record" 8 (Wal.Apply.records a);
  let sorted h = List.sort compare (Hashtbl.fold (fun p img acc -> (p, img) :: acc) h []) in
  Alcotest.(check bool) "follower state = replayed state" true
    (sorted follower = sorted r2.Wal.committed);
  (* the stream mixes both checksum kinds: legacy records unflagged,
     everything the resumed log appended flagged *)
  let shipped = fetch_all w ~lsn:0 in
  Alcotest.(check (list int)) "checksum-kind bytes in LSN order"
    [ 0; 0; 0; 0; 0; 1; 1; 1 ]
    (List.map (fun p -> Bytes.get_uint8 p 5) shipped);
  (* a second crash: the mixed pass replays and resumes again *)
  let w2 = Wal.resume ~data_page_size:data_ps ~replay:r2 f in
  Wal.append w2 ~gen:1 (Wal.Page { ptr = 4; image = Bytes.make 200 'y' });
  Wal.append w2 ~gen:1 Wal.Commit;
  Wal.fsync w2;
  let r3 = Wal.replay ~data_page_size:data_ps ~gen:1 f in
  Alcotest.(check int) "both kinds and two resumes, one scan" 10 r3.Wal.records;
  Alcotest.(check int) "four batches" 4 r3.Wal.batches;
  Alcotest.(check bool) "the newest image wins" true
    (Hashtbl.find_opt r3.Wal.committed 4 = Some (zero_padded (Bytes.make 200 'y')));
  let a = Wal.Apply.create ~data_page_size:data_ps () in
  let follower = Hashtbl.create 8 in
  List.iter
    (fun p ->
      match Wal.Apply.step a p with
      | Wal.Apply.Batch b ->
          List.iter (fun (q, img) -> Hashtbl.replace follower q img) b.Wal.Apply.b_images
      | Wal.Apply.Progress -> ()
      | Wal.Apply.Reject m -> Alcotest.failf "shipped page rejected: %s" m)
    (fetch_all w2 ~lsn:0);
  Alcotest.(check bool) "follower parity after the second resume" true
    (sorted follower = sorted r3.Wal.committed)

(* The checksum-kind byte sits inside the checksummed header: flipping
   it on a flagged record, to legacy FNV or to an unknown kind, fails
   the record instead of switching hashes. *)
let test_flipped_checksum_kind_rejected () =
  Failpoint.reset ();
  let _, w = log_short_page_batch () in
  match fetch_all w ~lsn:0 with
  | page :: _ ->
      Alcotest.(check int) "flagged" 1 (Bytes.get_uint8 page 5);
      List.iter
        (fun kind ->
          let p = Bytes.copy page in
          Bytes.set_uint8 p 5 kind;
          match Wal.Apply.step (Wal.Apply.create ~data_page_size:data_ps ()) p with
          | Wal.Apply.Reject _ -> ()
          | _ -> Alcotest.failf "checksum kind %d accepted" kind)
        [ 0; 2; 0xFF ];
      Alcotest.(check bool) "unflipped record accepted" true
        (Wal.Apply.step (Wal.Apply.create ~data_page_size:data_ps ()) page
        = Wal.Apply.Progress)
  | [] -> Alcotest.fail "nothing shipped"

(* ---------- a store written before the word-at-a-time checksum ---------- *)

(* The fixture directory, whether the suite runs from the test
   directory (dune runtest) or the repository root (dune exec). *)
let fixture name =
  let dir = if Sys.file_exists "fixtures" then "fixtures" else "test/fixtures" in
  Filename.concat dir name

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* test/fixtures/legacy-store.*: a one-shard store that `serve --backend
   disk --durability wal --path` wrote with v2 frames and FNV-checksummed
   log records, then was killed with kill -9 after acked commits — so
   its last batches live only in the WAL's uncheckpointed tail. Opened
   from a copy, it must replay, validate and hold exactly the pairs
   listed beside it. *)
let test_legacy_store_fixture () =
  Failpoint.reset ();
  let module Sh = Repro_baseline.Tree_intf.Sharded_int in
  let module VD = Repro_core.Validate.Make_on_store (Key.Int) (Repro_baseline.Tree_intf.Paged_int) in
  let data = fixture "legacy-store.s0" and log = fixture "legacy-store.wal.s0" in
  let raw = Paged_file.open_file data in
  Alcotest.(check int) "fixture holds v2 frames" Page_codec.legacy_version
    (Bytes.get_uint8 (Paged_file.read raw 2) 1);
  Paged_file.close raw;
  let raw =
    Paged_file.open_file
      ~page_size:(Wal.log_page_size ~data_page_size:Paged_file.default_page_size)
      log
  in
  Alcotest.(check int) "fixture log holds unflagged records" 0
    (Bytes.get_uint8 (Paged_file.read raw 0) 5);
  Paged_file.close raw;
  let base = Filename.temp_file "legacy_store" "" in
  let wal = base ^ ".wal" in
  copy_file data (Sh.shard_path base 0);
  copy_file log (Sh.shard_path wal 0);
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ base; Sh.shard_path base 0; Sh.shard_path wal 0 ])
    (fun () ->
      let sst = Sh.open_file ~wal_path:wal ~shards:1 base in
      let ts, h = Repro_baseline.Tree_intf.sagiv_disk_sharded_open sst in
      let r = VD.check ts.(0) in
      if not (Repro_core.Validate.ok r) then
        Alcotest.failf "fixture invalid: %s"
          (String.concat "; " r.Repro_core.Validate.errors);
      let want =
        let ic = open_in (fixture "legacy-store.pairs") in
        let rec go acc =
          match input_line ic with
          | line -> go (Scanf.sscanf line "%d %d" (fun k v -> (k, v)) :: acc)
          | exception End_of_file -> List.rev acc
        in
        let l = go [] in
        close_in ic;
        l
      in
      let c = Repro_core.Handle.ctx ~slot:0 in
      let got = (Option.get h.Repro_baseline.Tree_intf.range) c ~lo:min_int ~hi:max_int in
      Alcotest.(check int) "pair count" (List.length want) (List.length got);
      Alcotest.(check bool) "pairs match the list" true (got = want);
      (* the batches past the last checkpoint came from the log *)
      Alcotest.(check (option int)) "WAL-only key" (Some 5000) (h.Repro_baseline.Tree_intf.search c 500);
      (* new writes land as v4 frames and flagged records *)
      ignore (h.Repro_baseline.Tree_intf.insert c 1_000 1);
      h.Repro_baseline.Tree_intf.commit ();
      Sh.close sst;
      let sst = Sh.open_file ~wal_path:wal ~shards:1 base in
      let _, h = Repro_baseline.Tree_intf.sagiv_disk_sharded_open sst in
      Alcotest.(check (option int)) "mixed store reopens" (Some 1)
        (h.Repro_baseline.Tree_intf.search c 1_000);
      Alcotest.(check int) "every pair kept" (List.length want + 1)
        (List.length ((Option.get h.Repro_baseline.Tree_intf.range) c ~lo:min_int ~hi:max_int));
      Sh.close sst)

(* LSNs never restart: a store closed right after its checkpoint reopens
   with an empty log pass, and the new life's records must continue the
   sequence. A follower that applied every commit of the first life
   before the close must then continue into the new life: the closing
   checkpoint's marker is served again by the reopened log, and the new
   life's first record follows it instead of being skipped as one the
   follower has already seen. *)
let test_lsn_continues_after_clean_reopen () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:512 () in
  let lfile =
    Paged_file.create_shadow ~page_size:(Wal.log_page_size ~data_page_size:512) ()
  in
  let store = PS.create_on ~cache_pages:64 ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  for k = 1 to 50 do
    ignore (Sg.insert tree c k (k * 7));
    Sg.commit tree
  done;
  let first_life = PS.wal_durable_lsn store in
  let follower = Wal.Apply.create ~data_page_size:512 () in
  let rec drain store batches =
    match PS.wal_fetch store ~lsn:(Wal.Apply.next_lsn follower) ~max_pages:64 with
    | Wal.At_end -> batches
    | Wal.Stale -> Alcotest.fail "follower fell out of the retention window"
    | Wal.Pages { pages; _ } ->
        drain store
          (List.fold_left
             (fun n page ->
               match Wal.Apply.step follower page with
               | Wal.Apply.Batch _ -> n + 1
               | Wal.Apply.Progress -> n
               | Wal.Apply.Reject why -> Alcotest.failf "follower rejected: %s" why)
             batches pages)
  in
  Alcotest.(check int) "follower applied the first life" 50 (drain store 0);
  Alcotest.(check int) "follower cursor past the first life" (first_life + 1)
    (Wal.Apply.next_lsn follower);
  PS.close store;
  let store2 =
    PS.open_from ~cache_pages:64 ~wal:(Paged_file.crash_image lfile)
      (Paged_file.crash_image pfile)
  in
  let tree2 = Sg.open_existing store2 in
  ignore (Sg.insert tree2 c 1_000 1);
  Sg.commit tree2;
  let second_life = PS.wal_durable_lsn store2 in
  if second_life <= first_life then
    Alcotest.failf "durable LSN %d after the reopen, %d before it" second_life
      first_life;
  Alcotest.(check int) "follower received the new life's commit" 1 (drain store2 0);
  Alcotest.(check int) "follower horizon is the new commit" second_life
    (Wal.Apply.horizon follower)

let read_pairs path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (Scanf.sscanf line "%d %d" (fun k v -> (k, v)) :: acc)
    | exception End_of_file -> List.rev acc
  in
  let l = go [] in
  close_in ic;
  l

(* test/fixtures/sync-store.s0: a one-shard store that `serve --backend
   disk --durability sync --path` wrote before every store had a log —
   no log file beside it. Opened from a copy it must create an empty
   log, hold exactly the listed pairs, group-commit, and keep the
   commit across a reopen that skips the closing checkpoint (what a
   kill -9 leaves behind). *)
let test_sync_store_fixture () =
  Failpoint.reset ();
  let module Sh = Repro_baseline.Tree_intf.Sharded_int in
  let module TI = Repro_baseline.Tree_intf in
  let base = Filename.temp_file "sync_store" "" in
  let data = Sh.shard_path base 0 and log = Sh.shard_path (base ^ ".wal") 0 in
  copy_file (fixture "sync-store.s0") data;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ base; data; log ])
    (fun () ->
      let want = read_pairs (fixture "sync-store.pairs") in
      let c = Repro_core.Handle.ctx ~slot:0 in
      let scan (h : TI.handle) = (Option.get h.TI.range) c ~lo:min_int ~hi:max_int in
      let sst = Sh.open_file ~shards:1 base in
      Alcotest.(check bool) "an empty log was created" true (Sys.file_exists log);
      let _, h = TI.sagiv_disk_sharded_open sst in
      Alcotest.(check bool) "pairs match the list" true (scan h = want);
      ignore (h.TI.insert c 1_000 1);
      h.TI.commit ();
      Alcotest.(check int) "the commit went through the log" 1
        (Sh.io_stats sst).Stats.commit_groups;
      (* no close: reopen what the files hold after the acked commit *)
      let sst2 = Sh.open_file ~shards:1 base in
      let _, h2 = TI.sagiv_disk_sharded_open sst2 in
      Alcotest.(check (option int)) "the committed insert survived" (Some 1)
        (h2.TI.search c 1_000);
      Alcotest.(check int) "every pair kept" (List.length want + 1)
        (List.length (scan h2));
      Sh.close sst2)

(* ---------- durable MVCC: logical records ---------- *)

(* A crash-shadow device holding [pfile]'s crash image, so the life
   that recovers from it can crash again. *)
let reshadow pfile =
  let image = Paged_file.crash_image pfile in
  let dev = Paged_file.create_shadow ~page_size:(Paged_file.page_size image) () in
  for i = 0 to Paged_file.pages image - 1 do
    ignore (Paged_file.append dev (Paged_file.read image i))
  done;
  Paged_file.sync dev;
  dev

(* Recover a durable MVCC store from the devices' crash images; returns
   the devices the recovered life writes to with it. *)
let mv_open ?(cache_pages = 256) pfile lfile =
  Failpoint.reset ();
  let pfile = reshadow pfile and lfile = reshadow lfile in
  let store = PS.open_from ~cache_pages ~wal:lfile pfile in
  (store, MV.open_durable ~enc:Fun.id ~dec:Fun.id store, pfile, lfile)

(* Key [k]'s whole chain, newest first: the values of its versions. *)
let chain_values mv k =
  let c = MV.ctx ~slot:0 in
  match MV.T.search (MV.tree mv) c k with
  | None -> []
  | Some rptr -> (
      match Record_store.export (MV.records mv) rptr with
      | Record_store.Slot_chain v ->
          let rec walk = function
            | None -> []
            | Some (v : int Record_store.version) -> v.Record_store.value :: walk v.Record_store.prev
          in
          walk (Some v)
      | Record_store.Slot_empty | Record_store.Slot_sealed -> [])

(* Commit one batch of upserts, then die inside the next: its log group
   write tears, so the crash image holds whatever of it landed past the
   acknowledged tail. *)
let mv_life mv ~acked ~torn =
  let c = MV.ctx ~slot:0 in
  List.iter (fun (k, v) -> MV.upsert mv c k v) acked;
  MV.commit mv;
  List.iter (fun (k, v) -> MV.upsert mv c k v) torn;
  Failpoint.set "paged_file.pwrite" Failpoint.Torn_write;
  match MV.commit mv with
  | () -> Alcotest.fail "the torn commit must crash"
  | exception Failpoint.Crash _ -> ()

(* Two crashes with no checkpoint between them (the phantom-tail class,
   for chains): each life acknowledges one commit and dies tearing the
   next. The second recovery replays the first life's records and the
   second life's, in log order, in one pass: every acknowledged version
   is in its chain, in order, and nothing of either torn batch is. *)
let test_mvcc_two_crashes () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_ps () in
  let lfile = Paged_file.create_shadow ~page_size:log_ps () in
  let store = PS.create_on ~cache_pages:256 ~wal:lfile pfile in
  let mv = MV.create_durable ~order:4 ~enc:Fun.id ~dec:Fun.id store in
  let c = MV.ctx ~slot:0 in
  for k = 0 to 29 do
    MV.upsert mv c k (k * 10)
  done;
  MV.flush mv;
  let keys lo hi f = List.init (hi - lo + 1) (fun i -> (lo + i, f (lo + i))) in
  mv_life mv ~acked:(keys 0 14 (fun k -> (k * 10) + 1)) ~torn:(keys 0 29 (fun _ -> 9999));
  let _, mv, pfile, lfile = mv_open pfile lfile in
  Alcotest.(check (list (option int))) "life 1: acked version on top" [ Some 31; Some 30 ]
    (chain_values mv 3);
  Alcotest.(check (list (option int))) "life 1: untouched key" [ Some 200 ] (chain_values mv 20);
  mv_life mv ~acked:(keys 10 29 (fun k -> (k * 10) + 2)) ~torn:(keys 0 29 (fun _ -> 8888));
  let _, mv, _, _ = mv_open pfile lfile in
  for k = 0 to 29 do
    let want =
      (if k >= 10 then [ Some ((k * 10) + 2) ] else [])
      @ (if k <= 14 then [ Some ((k * 10) + 1) ] else [])
      @ [ Some (k * 10) ]
    in
    Alcotest.(check (list (option int))) (Printf.sprintf "key %d's chain" k) want
      (chain_values mv k)
  done

(* A group commit that fails puts its logical records back ahead of any
   queued since, so the retry logs them: the failed attempt's upserts of
   existing keys change no tree page, and their records are all that
   carries them. *)
let test_mvcc_failed_group_requeues () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_ps () in
  let lfile = Paged_file.create_shadow ~page_size:log_ps () in
  let store = PS.create_on ~cache_pages:256 ~wal:lfile pfile in
  let mv = MV.create_durable ~order:4 ~enc:Fun.id ~dec:Fun.id store in
  let c = MV.ctx ~slot:0 in
  for k = 0 to 19 do
    MV.upsert mv c k k
  done;
  MV.flush mv;
  for k = 0 to 9 do
    MV.upsert mv c k (k + 100)
  done;
  List.iter
    (fun site ->
      Failpoint.set site (Failpoint.Error { every = 1 });
      (match MV.commit mv with
      | () -> Alcotest.failf "%s: the commit must fail" site
      | exception Failpoint.Injected _ -> ());
      Failpoint.set site Failpoint.Off)
    [ "wal.append"; "wal.commit" ];
  MV.upsert mv c 19 119;
  MV.commit mv;
  let _, mv, _, _ = mv_open pfile lfile in
  for k = 0 to 19 do
    let want = if k < 10 then k + 100 else if k = 19 then 119 else k in
    Alcotest.(check (option int)) (Printf.sprintf "key %d" k) (Some want) (MV.get mv c k)
  done

(* The generation rule: a follower's kept logical records die at the
   first batch of a later generation, because the checkpoint between
   folded them into the pages it shipped. A record kept past it would
   read over a newer fold: here the primary restarts after a crash (its
   new instance knows only the current pass's records), changes key 1,
   whose group has no record in that pass, and checkpoints — the fold
   carries the change, no record does. The follower's reads and its
   promotion through [Mvcc.open_durable] must both see it. *)
let test_mvcc_follower_generations () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_ps () in
  let lfile = Paged_file.create_shadow ~page_size:log_ps () in
  let store = PS.create_on ~cache_pages:256 ~wal:lfile pfile in
  (* two slots per group: keys 1 and 8 land in different groups *)
  let mv = MV.create_durable ~order:4 ~group_bits:1 ~enc:Fun.id ~dec:Fun.id store in
  let c = MV.ctx ~slot:0 in
  let fstore = PS.create_memory ~page_size:data_ps () in
  let apply = Wal.Apply.create ~data_page_size:data_ps () in
  let chains = MV.view ~dec:Fun.id in
  let next = ref 0 in
  let drain store =
    let rec go () =
      match PS.wal_fetch store ~lsn:!next ~max_pages:64 with
      | Wal.At_end -> ()
      | Wal.Stale -> Alcotest.fail "follower fell out of the window"
      | Wal.Pages { pages; next = n } ->
          List.iter
            (fun page ->
              match Wal.Apply.step apply page with
              | Wal.Apply.Progress -> ()
              | Wal.Apply.Reject msg -> Alcotest.failf "stream rejected: %s" msg
              | Wal.Apply.Batch b ->
                  PS.apply_replicated fstore ~gen:b.Wal.Apply.b_gen
                    ~logical:b.Wal.Apply.b_logical ~images:b.Wal.Apply.b_images
                    ~meta:b.Wal.Apply.b_meta;
                  MV.view_batch chains ~gen:b.Wal.Apply.b_gen
                    ~logical:b.Wal.Apply.b_logical)
            pages;
          next := n;
          go ()
    in
    go ()
  in
  let read k =
    let ext = Option.get (Option.bind (PS.get_meta fstore) Repro_core.Mvcc.decode_meta_ext) in
    match Sg.search (Sg.open_existing fstore) (Sg.ctx ~slot:0) k with
    | None -> None
    | Some rptr -> MV.view_reader chains fstore ext rptr
  in
  for k = 0 to 9 do
    MV.upsert mv c k (k * 10)
  done;
  MV.flush mv;
  MV.upsert mv c 1 11;
  MV.commit mv;
  MV.flush mv;
  MV.upsert mv c 8 81;
  MV.commit mv;
  drain store;
  Alcotest.(check (option int)) "key 1 before the restart" (Some 11) (read 1);
  Alcotest.(check (option int)) "key 8 before the restart" (Some 81) (read 8);
  let store, mv, _, _ = mv_open pfile lfile in
  MV.upsert mv c 1 12;
  MV.flush mv;
  MV.upsert mv c 8 82;
  MV.commit mv;
  drain store;
  Alcotest.(check (option int)) "follower reads the fold, not an older record"
    (Some 12) (read 1);
  Alcotest.(check (option int)) "follower reads this generation's record" (Some 82)
    (read 8);
  let promoted = MV.open_durable ~enc:Fun.id ~dec:Fun.id fstore in
  Alcotest.(check (option int)) "promotion reads the fold" (Some 12) (MV.get promoted c 1);
  Alcotest.(check (option int)) "promotion replays this generation" (Some 82)
    (MV.get promoted c 8)

(* The MVCC follower row past the battery's early ordinals: a crash
   deep in the run (snapshot pins and vacuum behind it) and a run the
   policy never stops, both held to the oracle, the follower's reads at
   its horizon and its promoted chains. *)
let test_mvcc_follower_deep () =
  List.iter
    (fun (site, ordinal, crashes) ->
      let o =
        Crash.run ~site
          ~policy:(Failpoint.Crash_after ordinal)
          {
            Crash.cache_pages = 8;
            shards = 1;
            mvcc = true;
            follower = true;
            page_size = 512;
          }
      in
      Alcotest.(check bool) (Printf.sprintf "%s crash@%d fired" site ordinal) crashes
        o.Crash.crashed)
    [ ("wal.commit", 60, true); ("wal.append", 250, true); ("wal.commit", 10_000, false) ]

(* test/fixtures/mvcc-store.*: a durable MVCC store that `serve --mvcc
   --backend disk --durability wal` wrote before commits logged chain
   changes as logical records, killed with kill -9 after acked commits:
   its uncheckpointed log tail carries chains as vrec page images only.
   Opened from a copy through [Mvcc.open_durable], it must hold exactly
   the pairs listed beside it. *)
let test_mvcc_store_fixture () =
  Failpoint.reset ();
  let module Sh = Repro_baseline.Tree_intf.Sharded_int in
  let module Codec = Page_codec.Make (Key.Int) in
  let data = fixture "mvcc-store.s0" and log = fixture "mvcc-store.wal.s0" in
  (* order 16's page: the default `serve` wrote it with *)
  let data_page_size = 1024 in
  let raw = Paged_file.open_file ~page_size:(Wal.log_page_size ~data_page_size) log in
  let a = Wal.Apply.create ~data_page_size () in
  let vrec_images = ref 0 and logical = ref 0 in
  Wal.scan ~data_page_size raw (fun page ->
      match Wal.Apply.step a page with
      | Wal.Apply.Reject _ -> false
      | Wal.Apply.Progress -> true
      | Wal.Apply.Batch b ->
          logical := !logical + List.length b.Wal.Apply.b_logical;
          List.iter
            (fun (_, img) ->
              if (Codec.of_bytes img).Node.level = Node.vrec_level then incr vrec_images)
            b.Wal.Apply.b_images;
          true);
  Paged_file.close raw;
  Alcotest.(check bool) "log tail carries vrec page images" true (!vrec_images > 0);
  Alcotest.(check int) "log tail carries no logical records" 0 !logical;
  let base = Filename.temp_file "mvcc_store" "" in
  let wal = base ^ ".wal" in
  copy_file data (Sh.shard_path base 0);
  copy_file log (Sh.shard_path wal 0);
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ base; Sh.shard_path base 0; Sh.shard_path wal 0 ])
    (fun () ->
      let want =
        let ic = open_in (fixture "mvcc-store.pairs") in
        let rec go acc =
          match input_line ic with
          | line -> go (Scanf.sscanf line "%d %d" (fun k v -> (k, v)) :: acc)
          | exception End_of_file -> List.rev acc
        in
        let l = go [] in
        close_in ic;
        l
      in
      let sst = Sh.open_file ~wal_path:wal ~shards:1 base in
      let _, h = Repro_baseline.Tree_intf.sagiv_mvcc_disk_open sst in
      let c = Repro_core.Handle.ctx ~slot:0 in
      let got = (Option.get h.Repro_baseline.Tree_intf.range) c ~lo:min_int ~hi:max_int in
      Alcotest.(check int) "pair count" (List.length want) (List.length got);
      Alcotest.(check bool) "pairs match the list" true (got = want);
      (* a commit now logs records; the store they land in reopens *)
      ignore (h.Repro_baseline.Tree_intf.insert c 1_000 45);
      h.Repro_baseline.Tree_intf.commit ();
      Sh.close sst;
      let sst = Sh.open_file ~wal_path:wal ~shards:1 base in
      let _, h = Repro_baseline.Tree_intf.sagiv_mvcc_disk_open sst in
      Alcotest.(check (option int)) "store reopens after new commits" (Some 45)
        (h.Repro_baseline.Tree_intf.search c 1_000);
      Alcotest.(check (option int)) "fixture pair kept" (Some 44)
        (h.Repro_baseline.Tree_intf.search c 4);
      Sh.close sst)

(* A page freed in the checkpointed generation, recycled and re-committed
   through the log only: recovery must take it off the free list, keep
   the allocator accounting consistent, and never hand it out again. *)
let test_replay_recycled_free_page () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_ps () in
  let lfile = Paged_file.create_shadow ~page_size:log_ps () in
  let store = PS.create_on ~cache_pages:8 ~wal:lfile pfile in
  let ptrs = Array.init 6 (fun i -> PS.alloc store (mk_leaf [ i ])) in
  PS.release store ptrs.(2);
  PS.sync store;
  (* the checkpointed free chain holds ptrs.(2) *)
  let p = PS.alloc store (mk_leaf [ 42 ]) in
  Alcotest.(check int) "allocator recycles the freed page" ptrs.(2) p;
  PS.commit store;
  let image = Paged_file.crash_image pfile in
  let limage = Paged_file.crash_image lfile in
  Failpoint.reset ();
  let store2 = PS.open_from ~cache_pages:8 ~wal:limage image in
  let n = PS.get store2 p in
  Alcotest.(check bool) "recycled page holds its committed contents" true
    (n.Node.keys = [| 42 |]);
  Alcotest.(check int) "allocator accounting consistent" 6
    (PS.total_allocated store2 - PS.total_freed store2);
  let q = PS.reserve store2 in
  Alcotest.(check bool) "recycled page never re-issued" true (q <> p);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "live page %d intact" i)
        true
        ((PS.get store2 ptrs.(i)).Node.keys = [| i |]))
    [ 0; 1; 3; 4; 5 ]

(* ---------- every registered site must have fired by now (keep this
   test last: it audits the whole suite run) ---------- *)

(* Multi-domain group commit under a simulated power cut: every
   acknowledged key must survive recovery. Probabilistic regression
   cover for the install/seal ordering race; the harness repeats fresh
   single-commit-round runs to widen the net while staying fast. *)
let test_wal_commit_race () = Crash.run_wal_commit_race ()

(* Durable MVCC under simulated crashes, beyond the quick battery's
   first-ordinal sweep: later ordinals land the kill amid snapshot pins
   and post-vacuum commits. The harness itself holds the three oracles
   (newest acked versions, deterministic chain replay, no pruned-version
   resurrection); here we also pin down that the site actually fired. *)
let test_mvcc_wal_crashes () =
  List.iter
    (fun (site, ordinal) ->
      let o =
        Crash.run ~site
          ~policy:(Failpoint.Crash_after ordinal)
          {
            Crash.cache_pages = 8;
            shards = 1;
            mvcc = true;
            follower = false;
            page_size = 512;
          }
      in
      Alcotest.(check bool) (site ^ " fired") true o.Crash.crashed)
    [ ("wal.append", 5); ("wal.commit", 3); ("paged_file.fsync", 4) ]

let test_all_sites_exercised () =
  Failpoint.reset ();
  match Failpoint.unexercised () with
  | [] -> ()
  | dead ->
      Alcotest.failf "failpoint sites registered but never exercised: %s"
        (String.concat ", " dead)

let suite =
  [
    Alcotest.test_case "failpoint registry basics" `Quick test_failpoint_registry;
    Alcotest.test_case "simulated-crash battery (quick)" `Quick test_battery;
    Alcotest.test_case "header slot corruption falls back" `Quick
      test_header_slot_corruption;
    Alcotest.test_case "short writes retried on a real file" `Quick
      test_short_writes_on_file;
    Alcotest.test_case "replay: empty log" `Quick test_replay_empty_log;
    Alcotest.test_case "replay: checkpoint-only log" `Quick
      test_replay_checkpoint_only;
    Alcotest.test_case "replay: torn final record" `Quick
      test_replay_torn_final_record;
    Alcotest.test_case "replay: duplicate images, last writer wins" `Quick
      test_replay_last_writer_wins;
    Alcotest.test_case "replay: recycled free-chain page" `Quick
      test_replay_recycled_free_page;
    Alcotest.test_case "regression: phantom tail across two crashes" `Quick
      test_phantom_tail_two_crash;
    Alcotest.test_case "regression: stale COMMIT directly after tail" `Quick
      test_phantom_commit_after_tail;
    Alcotest.test_case "resume: first record lands on the torn position"
      `Quick test_resume_overwrites_torn_position;
    Alcotest.test_case "resume: empty-log round-trip" `Quick
      test_resume_empty_log_roundtrip;
    Alcotest.test_case "resume: header incarnation floor" `Quick
      test_resume_incarnation_floor;
    Alcotest.test_case "replay: short PAGE body zero-padded (replay + Apply)"
      `Quick test_short_page_record_padded;
    Alcotest.test_case "replay: tear past body_len keeps the record" `Quick
      test_tear_past_body_keeps_record;
    Alcotest.test_case "replay: tear inside header + body stops the scan"
      `Quick test_tear_inside_record_stops_scan;
    Alcotest.test_case "replay: legacy whole-page checksum still accepted"
      `Quick test_legacy_whole_page_checksum;
    Alcotest.test_case "packed: one commit of 8 PAGE records writes 2 log pages"
      `Quick test_commit_writes_whole_pages;
    Alcotest.test_case "packed: stale middle page stops the group, resume on its first page"
      `Quick test_stale_middle_page;
    Alcotest.test_case "packed: tear inside a record crossing a page boundary"
      `Quick test_tear_across_page_boundary;
    Alcotest.test_case "packed: resume clears an interrupted group's remains"
      `Quick test_resume_clears_interrupted_group;
    Alcotest.test_case "regression: uncommitted tail not chained by the next life"
      `Quick test_uncommitted_tail_not_chained;
    Alcotest.test_case "packed: fetch_from byte-identical across the seal" `Quick
      test_fetch_identical_across_seal;
    Alcotest.test_case "legacy: page-per-record log resumes with packed groups"
      `Quick test_legacy_log_resumes_packed;
    Alcotest.test_case "flipped checksum kind rejected" `Quick
      test_flipped_checksum_kind_rejected;
    Alcotest.test_case "legacy: pre-v4 store fixture replays" `Quick
      test_legacy_store_fixture;
    Alcotest.test_case "concurrent group commit loses no acked key" `Quick
      test_wal_commit_race;
    Alcotest.test_case "durable mvcc crash battery (targeted)" `Quick
      test_mvcc_wal_crashes;
    Alcotest.test_case "battery crash-tests every accepted disk config" `Quick
      test_battery_covers_serve_configs;
    Alcotest.test_case "all failpoint sites exercised" `Quick
      test_all_sites_exercised;
    Alcotest.test_case "packed: unwritten group pages fetch and seal from memory"
      `Quick test_unwritten_group_reads;
    Alcotest.test_case "mvcc: chains survive two crashes, no checkpoint between"
      `Quick test_mvcc_two_crashes;
    Alcotest.test_case "mvcc: a failed group re-queues its logical records" `Quick
      test_mvcc_failed_group_requeues;
    Alcotest.test_case "mvcc: follower drops older generations' records" `Quick
      test_mvcc_follower_generations;
    Alcotest.test_case "mvcc follower: deep crash and clean run" `Quick
      test_mvcc_follower_deep;
    Alcotest.test_case "legacy: MVCC store with page-image chains replays" `Quick
      test_mvcc_store_fixture;
    Alcotest.test_case "LSNs continue across a clean reopen" `Quick
      test_lsn_continues_after_clean_reopen;
    Alcotest.test_case "legacy: store written without a log opens and logs" `Quick
      test_sync_store_fixture;
  ]
